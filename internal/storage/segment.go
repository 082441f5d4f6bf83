package storage

import (
	"bytes"
	"fmt"
)

// SegID identifies a segment cluster-wide. IDs are issued by the master's
// catalog and never reused.
type SegID uint64

// PageNo addresses a page within a segment. All page references inside a
// segment (B*-tree child pointers, leaf chains) are segment-relative, which
// is what makes segments self-contained and freely movable between nodes —
// the core mechanism behind physiological partitioning (Sect. 4.3).
type PageNo uint32

// PageID names a page cluster-wide.
type PageID struct {
	Seg  SegID
	Page PageNo
}

// String formats the page ID for diagnostics.
func (id PageID) String() string { return fmt.Sprintf("%d:%d", id.Seg, id.Page) }

// Segment is the unit of distribution in the storage subsystem: a fixed
// number of consecutively stored pages (4096 × 8 KB = 32 MB in the paper).
// Pages are allocated lazily so sparsely used segments stay cheap.
type Segment struct {
	ID       SegID
	pageSize int
	capacity int
	pages    [][]byte
	free     []PageNo
	next     PageNo

	// TreeRoot is the root page of the segment-local B*-tree (0 = none;
	// page 0 is reserved so 0 can mean "unset").
	TreeRoot PageNo
	// LowKey and HighKey bound the keys stored in the segment when it
	// serves as a physiological mini-partition. HighKey is exclusive;
	// nil HighKey means unbounded.
	LowKey, HighKey []byte
}

// NewSegment creates an empty segment with the given geometry.
func NewSegment(id SegID, pageSize, capacity int) *Segment {
	if capacity < 2 {
		panic("storage: segment needs at least 2 pages")
	}
	return &Segment{
		ID:       id,
		pageSize: pageSize,
		capacity: capacity,
		pages:    make([][]byte, capacity),
		next:     1, // page 0 reserved
	}
}

// PageSize returns the segment's page size in bytes.
func (s *Segment) PageSize() int { return s.pageSize }

// Capacity returns the number of page slots.
func (s *Segment) Capacity() int { return s.capacity }

// UsedPages returns the number of allocated (live) pages.
func (s *Segment) UsedPages() int { return int(s.next) - 1 - len(s.free) }

// Bytes returns the segment's allocated size in bytes, the amount shipped
// when the segment moves between nodes.
func (s *Segment) Bytes() int64 { return int64(s.UsedPages()) * int64(s.pageSize) }

// Full reports whether the segment has no free page slots left.
func (s *Segment) Full() bool { return len(s.free) == 0 && int(s.next) >= s.capacity }

// AllocPage allocates a zeroed page and returns its number, or ok=false if
// the segment is full.
func (s *Segment) AllocPage() (PageNo, bool) {
	if n := len(s.free); n > 0 {
		no := s.free[n-1]
		s.free = s.free[:n-1]
		p := s.pages[no]
		for i := range p {
			p[i] = 0
		}
		return no, true
	}
	if int(s.next) >= s.capacity {
		return 0, false
	}
	no := s.next
	s.next++
	s.pages[no] = make([]byte, s.pageSize)
	return no, true
}

// FreePage returns a page to the segment's freelist.
func (s *Segment) FreePage(no PageNo) {
	if no == 0 || int(no) >= int(s.next) || s.pages[no] == nil {
		panic(fmt.Sprintf("storage: free of invalid page %d", no))
	}
	s.free = append(s.free, no)
}

// Page returns the raw bytes of page no. It panics on unallocated pages:
// that is always an engine bug, not a user error.
func (s *Segment) Page(no PageNo) Page {
	p := s.pages[no]
	if p == nil {
		panic(fmt.Sprintf("storage: access to unallocated page %v:%d", s.ID, no))
	}
	return p
}

// Clone deep-copies the segment, including page bytes and key bounds. Used
// when a segment is shipped to another node: the receiver gets an
// independent copy while the sender retains the original for in-flight
// readers, exactly as the paper's movement protocol requires.
func (s *Segment) Clone(newID SegID) *Segment {
	c := &Segment{
		ID:       newID,
		pageSize: s.pageSize,
		capacity: s.capacity,
		pages:    make([][]byte, s.capacity),
		free:     append([]PageNo(nil), s.free...),
		next:     s.next,
		TreeRoot: s.TreeRoot,
		LowKey:   bytes.Clone(s.LowKey),
		HighKey:  bytes.Clone(s.HighKey),
	}
	for i, p := range s.pages {
		if p != nil {
			c.pages[i] = bytes.Clone(p)
		}
	}
	return c
}

// UsedBytes sums live cell bytes across allocated pages (storage-footprint
// metric for Fig. 3).
func (s *Segment) UsedBytes() int64 {
	var total int64
	for no := PageNo(1); no < s.next; no++ {
		if s.pages[no] != nil {
			total += int64(Page(s.pages[no]).UsedBytes())
		}
	}
	return total
}
