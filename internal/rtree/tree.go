package rtree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/storage"
)

// Tree is a read-only paged R-tree of points, built once by Bulk (or
// reopened by Open). Page 0 of the underlying store is a metadata page;
// tree nodes occupy the remaining pages. All node reads go through the
// LRU buffer so that I/O statistics reflect the access pattern.
type Tree struct {
	buf    *storage.Buffer
	root   storage.PageID
	height int // 1 = root is a leaf
	size   int
}

const metaMagic = 0x52545245 // "RTRE"

// Open loads a tree previously persisted with Flush from buf's store.
func Open(buf *storage.Buffer) (*Tree, error) {
	data, err := buf.Read(0)
	if err != nil {
		return nil, fmt.Errorf("rtree: read meta page: %w", err)
	}
	if binary.LittleEndian.Uint32(data[0:4]) != metaMagic {
		return nil, errors.New("rtree: store does not contain an R-tree")
	}
	t := &Tree{
		buf:    buf,
		root:   storage.PageID(binary.LittleEndian.Uint32(data[4:8])),
		height: int(binary.LittleEndian.Uint32(data[8:12])),
		size:   int(binary.LittleEndian.Uint64(data[12:20])),
	}
	return t, nil
}

// Flush persists the tree metadata so the store can be reopened later.
func (t *Tree) Flush() error {
	data := make([]byte, 20)
	binary.LittleEndian.PutUint32(data[0:4], metaMagic)
	binary.LittleEndian.PutUint32(data[4:8], uint32(t.root))
	binary.LittleEndian.PutUint32(data[8:12], uint32(t.height))
	binary.LittleEndian.PutUint64(data[12:20], uint64(t.size))
	return t.buf.Write(0, data)
}

// Size returns the number of indexed points.
func (t *Tree) Size() int { return t.size }

// Height returns the tree height (1 when the root is a leaf).
func (t *Tree) Height() int { return t.height }

// Buffer returns the tree's buffer manager (for I/O statistics).
func (t *Tree) Buffer() *storage.Buffer { return t.buf }

// PageCount returns the number of pages in the underlying store,
// including the metadata page.
func (t *Tree) PageCount() int { return t.buf.Store().NumPages() }

func (t *Tree) readNode(id storage.PageID) (*node, error) {
	data, err := t.buf.Read(id)
	if err != nil {
		return nil, err
	}
	return decodeNode(id, data)
}

func (t *Tree) writeNode(n *node) error {
	data, err := encodeNode(n, t.buf.Store().PageSize())
	if err != nil {
		return err
	}
	return t.buf.Write(n.id, data)
}
