package extent

// Data-sieving cover planning (Thakur, Gropp, Lusk: "Optimizing
// Noncontiguous Accesses in MPI-IO"). Given the noncontiguous runs a
// reader actually needs, SievePlan groups nearby runs under covering
// extents: each cover is read from the file system as one contiguous
// request and the wanted runs are scattered out of it, trading wasted
// bytes inside the holes for a reduction in request count. The budget is
// the sieve buffer size — the largest contiguous read the caller is
// willing to stage. A budget too small to join two runs degenerates to
// list I/O: one cover per run, no waste.

import "sort"

// SieveGroup is one planned covering read: Cover is the contiguous extent
// to read, Index the positions (into the run list given to SievePlan, in
// ascending offset order) of the runs the cover serves.
type SieveGroup struct {
	Cover Extent
	Index []int
}

// SievePlan partitions runs into covering groups. Runs are considered in
// ascending offset order (ties keep input order); a run joins the current
// group while the group's cover — from the group's first byte to the run's
// last — stays within budget bytes. budget <= 0, or any budget smaller
// than the gap-joined span of two runs, yields one cover per run. Covers
// never extend past the runs they serve: Cover is exactly the span of the
// group's members, so every group satisfies Cover ⊇ each member and
// Cover.Off/Cover.End() coincide with member bytes. Zero-length runs are
// skipped entirely. Overlapping runs are legal; each still receives its
// own bytes at scatter time.
func SievePlan(runs []Extent, budget int64) []SieveGroup {
	idx := make([]int, 0, len(runs))
	for i, r := range runs {
		if r.Len > 0 {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool { return runs[idx[a]].Off < runs[idx[b]].Off })

	var groups []SieveGroup
	for _, i := range idx {
		r := runs[i]
		if n := len(groups); n > 0 {
			g := &groups[n-1]
			end := r.End()
			if gEnd := g.Cover.End(); gEnd > end {
				end = gEnd
			}
			if end-g.Cover.Off <= budget {
				g.Index = append(g.Index, i)
				g.Cover.Len = end - g.Cover.Off
				continue
			}
		}
		groups = append(groups, SieveGroup{Cover: r, Index: []int{i}})
	}
	return groups
}
