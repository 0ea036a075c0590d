package rtree

import (
	"errors"
	"fmt"

	"repro/internal/storage"
)

// checkInvariants verifies the structural invariants of a tree: every
// parent entry's MBR contains its child's MBR, subtree counts are
// accurate, no node below the root is empty, all leaves sit at the same
// depth, and the points add up to Size. It returns the total point count.
func (t *Tree) checkInvariants() (int, error) {
	total, err := t.check(t.root, t.height)
	if err == nil && total != t.size {
		err = fmt.Errorf("rtree: tree holds %d points, Size reports %d", total, t.size)
	}
	return total, err
}

func (t *Tree) check(id storage.PageID, level int) (int, error) {
	n, err := t.readNode(id)
	if err != nil {
		return 0, err
	}
	if id != t.root && len(n.items)+len(n.childs) == 0 {
		return 0, fmt.Errorf("rtree: empty non-root node at page %d", id)
	}
	if n.leaf {
		if level != 1 {
			return 0, errors.New("rtree: leaf not at level 1")
		}
		return len(n.items), nil
	}
	if level == 1 {
		return 0, errors.New("rtree: directory at leaf level")
	}
	total := 0
	for _, c := range n.childs {
		child, err := t.readNode(c.child)
		if err != nil {
			return 0, err
		}
		cm := child.mbr()
		if !c.mbr.ContainsRect(cm) {
			return 0, errors.New("rtree: parent MBR does not contain child MBR")
		}
		got, err := t.check(c.child, level-1)
		if err != nil {
			return 0, err
		}
		if got != c.count {
			return 0, errors.New("rtree: stale subtree count in directory entry")
		}
		total += got
	}
	return total, nil
}
