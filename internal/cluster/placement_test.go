package cluster

import "testing"

// TestNodeRankRangePartition checks that the node rank ranges tile the job
// exactly: every rank lands in the range of its own node and no other.
func TestNodeRankRangePartition(t *testing.T) {
	m := Lonestar()
	for _, cores := range []int{1, 2, 3, 5, 12} {
		m.CoresPerNode = cores
		for _, nprocs := range []int{1, 2, cores, cores + 1, 3*cores - 1, 4 * cores} {
			seen := make([]int, nprocs)
			for node := 0; node <= m.NodesFor(nprocs); node++ {
				lo, hi := m.NodeRankRange(node, nprocs)
				if lo > hi || lo < 0 || hi > nprocs {
					t.Fatalf("cores=%d nprocs=%d node %d: range [%d,%d)", cores, nprocs, node, lo, hi)
				}
				for r := lo; r < hi; r++ {
					seen[r]++
					if m.NodeOf(r) != node {
						t.Fatalf("cores=%d: rank %d in node %d's range but NodeOf=%d",
							cores, r, node, m.NodeOf(r))
					}
				}
			}
			for r, n := range seen {
				if n != 1 {
					t.Fatalf("cores=%d nprocs=%d: rank %d covered %d times", cores, nprocs, r, n)
				}
			}
		}
	}
}
