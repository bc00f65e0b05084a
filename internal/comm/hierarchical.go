package comm

import "sort"

// alltoallHier is the hierarchical, leader-based ALLTOALL of §VI-E1: "For
// inter-node communication we borrow techniques from studies about
// hierarchical collectives ... A set of dedicated leader cores on a single
// node is responsible for communication while the others perform the merging
// process."
//
// Ranks are grouped into nodes of the cost model's RanksPerNode consecutive
// *world* ranks (EffectiveSchedule runs it only when that is more than one).
// Each node's first rank acts as the leader: members hand it their blocks as
// one buffer in destination order — the flat ALLTOALLV send buffer —
// intra-node (cheap under PGAS pricing), the leaders run one aggregated
// exchange across the network — (P/ranksPerNode)² network messages instead of
// P² — and redistribute to their members.
//
// The result is AlltoallWith's: the received blocks indexed by sender.
func alltoallHier[T any](c *Comm, blocks [][]T, byteScale float64) [][]T {
	p := c.Size()
	ranksPerNode := c.Model().Topo.RanksPerNode
	sendCounts := make([]int64, p)
	total := 0
	for d, b := range blocks {
		sendCounts[d] = int64(len(b))
		total += len(b)
	}
	data := make([]T, 0, total)
	for _, b := range blocks {
		data = append(data, b...)
	}

	// Node grouping by world rank, so groups match the topology.
	myNode := c.WorldRank() / ranksPerNode
	nodeOf := AllgatherOne(c, myNode) // comm rank -> node id
	node := c.Split(myNode, c.Rank())
	isLeader := node.Rank() == 0
	leaders := c.Split(boolToInt(isLeader), c.Rank())

	// Step 1: members hand (counts, data) to their leader.
	countBlocks := Gather(node, 0, sendCounts)
	dataBlocks := Gather(node, 0, data)

	if !isLeader {
		// Step 4 (member side): receive the final partition.
		out := Scatter[T](node, 0, nil)
		return splitBlocks(out, Scatter[int64](node, 0, nil))
	}

	// Leader bookkeeping: members of every node, ascending comm rank, and
	// the leaders-communicator index of every node.
	membersOf := map[int][]int{}
	for r, nid := range nodeOf {
		membersOf[nid] = append(membersOf[nid], r)
	}
	nodeByLeader := AllgatherOne(leaders, myNode) // leaders rank -> node id
	g := leaders.Size()

	// Step 2: build one aggregated block per destination node: for each
	// local member s (ascending), for each destination rank d of that
	// node (ascending), member s's segment for d — plus the matching
	// count matrix.
	offsets := make([][]int64, node.Size())
	for s := range offsets {
		offsets[s] = make([]int64, p+1)
		for d := 0; d < p; d++ {
			offsets[s][d+1] = offsets[s][d] + countBlocks[s][d]
		}
	}
	dataOut := make([][]T, g)
	metaOut := make([][]int64, g)
	for lg := 0; lg < g; lg++ {
		destRanks := membersOf[nodeByLeader[lg]]
		var buf []T
		meta := make([]int64, 0, node.Size()*len(destRanks))
		for s := 0; s < node.Size(); s++ {
			for _, d := range destRanks {
				seg := dataBlocks[s][offsets[s][d]:offsets[s][d+1]]
				buf = append(buf, seg...)
				meta = append(meta, int64(len(seg)))
			}
		}
		dataOut[lg] = buf
		metaOut[lg] = meta
	}

	// Step 3: the aggregated network exchange among leaders.
	metaIn := exchangeRounds(leaders, metaOut, AlltoallPairwise, 1)
	dataIn := exchangeRounds(leaders, dataOut, AlltoallPairwise, byteScale)

	// Step 4 (leader side): reassemble per-member buffers ordered by
	// global source rank, then scatter within the node.
	myMembers := membersOf[myNode]
	type seg struct {
		src  int
		data []T
	}
	perMember := make(map[int][]seg, len(myMembers))
	for lg := 0; lg < g; lg++ {
		srcRanks := membersOf[nodeByLeader[lg]]
		meta, buf := metaIn[lg], dataIn[lg]
		mi, off := 0, 0
		for _, s := range srcRanks {
			for _, d := range myMembers {
				n := int(meta[mi])
				mi++
				if n > 0 {
					perMember[d] = append(perMember[d], seg{src: s, data: buf[off : off+n]})
				}
				off += n
			}
		}
	}
	outBlocks := make([][]T, node.Size())
	countOut := make([][]int64, node.Size())
	for i, d := range myMembers {
		segs := perMember[d]
		sort.Slice(segs, func(a, b int) bool { return segs[a].src < segs[b].src })
		counts := make([]int64, p)
		var buf []T
		for _, sg := range segs {
			counts[sg.src] = int64(len(sg.data))
			buf = append(buf, sg.data...)
		}
		outBlocks[i] = buf
		countOut[i] = counts
	}
	out := Scatter(node, 0, outBlocks)
	return splitBlocks(out, Scatter(node, 0, countOut))
}

// splitBlocks cuts buf into consecutive blocks of the given lengths.
func splitBlocks[T any](buf []T, counts []int64) [][]T {
	blocks := make([][]T, len(counts))
	off := 0
	for i, n := range counts {
		blocks[i] = buf[off : off+int(n)]
		off += int(n)
	}
	return blocks
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
