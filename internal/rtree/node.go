// Package rtree implements a paged R-tree over the storage substrate,
// the spatial access method the paper assumes for the customer set P
// (§2.3). It provides:
//
//   - STR bulk loading into a read-only tree (the assignment only ever
//     reads P, so the tree is packed once and never updated),
//   - range and annular range search (used by RIA, §3.1),
//   - best-first incremental nearest neighbor search in the style of
//     Hjaltason & Samet (used by NIA/IDA, §3.2–3.3),
//   - grouped incremental all-nearest-neighbor search (§3.4.2), where a
//     group's members share every page read and each leaf read costs a
//     member one heap entry keyed by its mindist, a lower bound of every
//     point inside, until that member needs the leaf's points (ties go
//     out in ascending item ID), and
//   - an entry-level traversal cursor with per-subtree point counts
//     (used by CA partitioning, §4.2).
//
// Every page access goes through an LRU buffer manager, so experiments
// can account faults exactly as the paper does.
package rtree

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/storage"
)

// Item is a point with an application identifier (a customer).
type Item struct {
	ID int64
	Pt geo.Point
}

// Page layout
//
//	header: kind (1 byte: 0 leaf, 1 dir) | count (uint16)
//	leaf entry:  id int64 | x float64 | y float64                 = 24 B
//	dir  entry:  child uint32 | count uint32 | 4 × float64 MBR    = 40 B
//
// With the paper's 1 KB pages this gives leaf fanout 42 and directory
// fanout 25. Directory entries carry the subtree point count, making the
// tree a (count-)aggregate R-tree; CA partitioning reads representative
// weights from directory entries without descending (§4.2).
const (
	headerSize    = 3
	leafEntrySize = 24
	dirEntrySize  = 40

	kindLeaf = 0
	kindDir  = 1
)

// dirEntry is a decoded directory entry.
type dirEntry struct {
	child storage.PageID
	count int // points in the subtree
	mbr   geo.Rect
}

// node is a decoded page.
type node struct {
	id     storage.PageID
	leaf   bool
	items  []Item     // when leaf
	childs []dirEntry // when directory
}

// subtreeCount returns the number of points under this node.
func (n *node) subtreeCount() int {
	if n.leaf {
		return len(n.items)
	}
	total := 0
	for _, c := range n.childs {
		total += c.count
	}
	return total
}

// mbr computes the bounding rectangle of the node's entries.
func (n *node) mbr() geo.Rect {
	r := geo.EmptyRect()
	if n.leaf {
		for _, it := range n.items {
			r = r.ExtendPoint(it.Pt)
		}
	} else {
		for _, c := range n.childs {
			r = r.Union(c.mbr)
		}
	}
	return r
}

// LeafCapacity returns the number of point entries per leaf page.
func LeafCapacity(pageSize int) int { return (pageSize - headerSize) / leafEntrySize }

// DirCapacity returns the number of child entries per directory page.
func DirCapacity(pageSize int) int { return (pageSize - headerSize) / dirEntrySize }

func encodeNode(n *node, pageSize int) ([]byte, error) {
	buf := make([]byte, pageSize)
	if n.leaf {
		if len(n.items) > LeafCapacity(pageSize) {
			return nil, fmt.Errorf("rtree: leaf overflow: %d entries", len(n.items))
		}
		buf[0] = kindLeaf
		binary.LittleEndian.PutUint16(buf[1:3], uint16(len(n.items)))
		off := headerSize
		for _, it := range n.items {
			binary.LittleEndian.PutUint64(buf[off:], uint64(it.ID))
			binary.LittleEndian.PutUint64(buf[off+8:], math.Float64bits(it.Pt.X))
			binary.LittleEndian.PutUint64(buf[off+16:], math.Float64bits(it.Pt.Y))
			off += leafEntrySize
		}
		return buf, nil
	}
	if len(n.childs) > DirCapacity(pageSize) {
		return nil, fmt.Errorf("rtree: directory overflow: %d entries", len(n.childs))
	}
	buf[0] = kindDir
	binary.LittleEndian.PutUint16(buf[1:3], uint16(len(n.childs)))
	off := headerSize
	for _, c := range n.childs {
		binary.LittleEndian.PutUint32(buf[off:], uint32(c.child))
		binary.LittleEndian.PutUint32(buf[off+4:], uint32(c.count))
		binary.LittleEndian.PutUint64(buf[off+8:], math.Float64bits(c.mbr.Min.X))
		binary.LittleEndian.PutUint64(buf[off+16:], math.Float64bits(c.mbr.Min.Y))
		binary.LittleEndian.PutUint64(buf[off+24:], math.Float64bits(c.mbr.Max.X))
		binary.LittleEndian.PutUint64(buf[off+32:], math.Float64bits(c.mbr.Max.Y))
		off += dirEntrySize
	}
	return buf, nil
}

func decodeNode(id storage.PageID, buf []byte) (*node, error) {
	if len(buf) < headerSize {
		return nil, fmt.Errorf("rtree: page %d too small to decode", id)
	}
	n := &node{id: id}
	count := int(binary.LittleEndian.Uint16(buf[1:3]))
	switch buf[0] {
	case kindLeaf:
		n.leaf = true
		if headerSize+count*leafEntrySize > len(buf) {
			return nil, fmt.Errorf("rtree: corrupt leaf page %d: count %d", id, count)
		}
		n.items = make([]Item, count)
		off := headerSize
		for i := 0; i < count; i++ {
			n.items[i] = Item{
				ID: int64(binary.LittleEndian.Uint64(buf[off:])),
				Pt: geo.Point{
					X: math.Float64frombits(binary.LittleEndian.Uint64(buf[off+8:])),
					Y: math.Float64frombits(binary.LittleEndian.Uint64(buf[off+16:])),
				},
			}
			off += leafEntrySize
		}
	case kindDir:
		if headerSize+count*dirEntrySize > len(buf) {
			return nil, fmt.Errorf("rtree: corrupt directory page %d: count %d", id, count)
		}
		n.childs = make([]dirEntry, count)
		off := headerSize
		for i := 0; i < count; i++ {
			n.childs[i] = dirEntry{
				child: storage.PageID(binary.LittleEndian.Uint32(buf[off:])),
				count: int(binary.LittleEndian.Uint32(buf[off+4:])),
				mbr: geo.Rect{
					Min: geo.Point{
						X: math.Float64frombits(binary.LittleEndian.Uint64(buf[off+8:])),
						Y: math.Float64frombits(binary.LittleEndian.Uint64(buf[off+16:])),
					},
					Max: geo.Point{
						X: math.Float64frombits(binary.LittleEndian.Uint64(buf[off+24:])),
						Y: math.Float64frombits(binary.LittleEndian.Uint64(buf[off+32:])),
					},
				},
			}
			off += dirEntrySize
		}
	default:
		return nil, fmt.Errorf("rtree: page %d has unknown kind %d", id, buf[0])
	}
	return n, nil
}
