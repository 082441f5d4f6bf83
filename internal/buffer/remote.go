package buffer

import (
	"bytes"

	"wattdb/internal/hw"
	"wattdb/internal/sim"
	"wattdb/internal/storage"
)

// Remote is an rDMA page cache living in a helper node's DRAM. Evicted clean
// pages are offloaded to it; a later miss can then be served over the network
// faster than from a loaded disk ("warm" data, Sect. 5.2). Entries are clean
// by construction, so losing one is always safe.
type Remote struct {
	net      *hw.Network
	selfID   int // node whose pool offloads
	helperID int // node donating DRAM
	capacity int
	pages    map[storage.PageID][]byte
	order    []storage.PageID // FIFO eviction of the cache itself
}

// NewRemote creates a remote cache of capacity pages on helper helperID,
// used by node selfID.
func NewRemote(net *hw.Network, selfID, helperID, capacity int) *Remote {
	return &Remote{
		net:      net,
		selfID:   selfID,
		helperID: helperID,
		capacity: capacity,
		pages:    make(map[storage.PageID][]byte, capacity),
	}
}

// Store places a copy of data in the remote cache. The rDMA write is
// asynchronous from the evictor's perspective, so no simulation time is
// charged to the caller.
func (r *Remote) Store(id storage.PageID, data []byte) {
	if _, ok := r.pages[id]; !ok {
		for len(r.pages) >= r.capacity && len(r.order) > 0 {
			old := r.order[0]
			r.order = r.order[1:]
			delete(r.pages, old)
		}
		r.order = append(r.order, id)
	}
	r.pages[id] = bytes.Clone(data)
}

// Fetch tries to read id from the cache into dst, charging the rDMA network
// round trip to p. It reports whether the page was present. A fetched page
// is invalidated (the pool will re-own it and may dirty it).
func (r *Remote) Fetch(p *sim.Proc, id storage.PageID, dst []byte) bool {
	data, ok := r.pages[id]
	if !ok {
		return false
	}
	r.net.Transfer(p, r.helperID, r.selfID, int64(len(data)))
	copy(dst, data)
	delete(r.pages, id)
	return true
}

// Invalidate removes id from the cache (called when the page is dirtied).
func (r *Remote) Invalidate(id storage.PageID) { delete(r.pages, id) }

// Size returns the number of cached pages.
func (r *Remote) Size() int { return len(r.pages) }
