package obs

import "sort"

// Summary is the per-run digest of a recorded trace, attached to
// arch.Report when tracing is on. Times are seconds (virtual seconds on
// the sim backend, wall seconds elsewhere).
type Summary struct {
	Label string `json:"label"`
	Procs int    `json:"procs"`
	// SpanSec is last event end minus first event start across all ranks.
	SpanSec float64       `json:"spanSec"`
	Ranks   []RankSummary `json:"ranks"`
	// Edges is the per-(src,dst) message matrix built from send events.
	Edges []Edge `json:"edges,omitempty"`
	// CriticalPathSec estimates a lower bound on the schedule: the
	// largest per-rank busy+comm time (time not spent blocked). A run
	// whose span is close to this bound has little blocking to recover.
	CriticalPathSec float64 `json:"criticalPathSec"`
	// Dropped counts events lost to ring overflow across all ranks;
	// non-zero means the numbers above undercount.
	Dropped int64 `json:"dropped,omitempty"`
}

// RankSummary decomposes one rank's span into communicating (inside
// Send), blocked (waiting in Recv/RecvAny), and busy (everything else).
type RankSummary struct {
	Rank       int     `json:"rank"`
	Events     int     `json:"events"`
	Dropped    int64   `json:"dropped,omitempty"`
	BusySec    float64 `json:"busySec"`
	BlockedSec float64 `json:"blockedSec"`
	CommSec    float64 `json:"commSec"`
	// Parks counts the receives that parked the rank's goroutine on the
	// in-process fabric (sim, real). Read it against the recv events:
	// parks ≈ recvs means BlockedSec is wake-up latency, parks ≈ 0 that it
	// is skew between ranks. Always 0 on dist and elastic, whose ranks
	// block on connection reads.
	Parks int64 `json:"parks"`
}

// Edge is one cell of the message matrix.
type Edge struct {
	Src   int   `json:"src"`
	Dst   int   `json:"dst"`
	Msgs  int64 `json:"msgs"`
	Bytes int64 `json:"bytes"`
}

// Summary digests the recorder's rank rings. Call after the run.
func (r *Recorder) Summary() *Summary {
	if r == nil {
		return nil
	}
	s := &Summary{Label: r.label, Procs: r.n}
	type edgeKey struct{ src, dst int32 }
	edges := map[edgeKey]*Edge{}
	var tMin, tMax int64
	first := true
	perRank := make([][]Event, r.n)
	for rank := 0; rank < r.n; rank++ {
		ev, dropped := r.Events(rank)
		perRank[rank] = ev
		s.Dropped += dropped
		s.Ranks = append(s.Ranks, RankSummary{Rank: rank, Events: len(ev), Dropped: dropped, Parks: r.parks[rank]})
		for _, e := range ev {
			if first || e.T < tMin {
				tMin = e.T
				first = false
			}
			if end := e.T + e.Dur; end > tMax {
				tMax = end
			}
		}
	}
	if first {
		return s
	}
	s.SpanSec = float64(tMax-tMin) / 1e9
	for rank, ev := range perRank {
		rs := &s.Ranks[rank]
		for _, e := range ev {
			switch e.Kind {
			case KindSend:
				rs.CommSec += float64(e.Dur) / 1e9
				k := edgeKey{e.Rank, e.Peer}
				ed := edges[k]
				if ed == nil {
					ed = &Edge{Src: int(e.Rank), Dst: int(e.Peer)}
					edges[k] = ed
				}
				ed.Msgs++
				ed.Bytes += e.Bytes
			case KindRecv, KindRecvAny:
				rs.BlockedSec += float64(e.Dur) / 1e9
			}
		}
		rs.BusySec = s.SpanSec - rs.BlockedSec - rs.CommSec
		if rs.BusySec < 0 {
			rs.BusySec = 0
		}
		if cp := rs.BusySec + rs.CommSec; cp > s.CriticalPathSec {
			s.CriticalPathSec = cp
		}
	}
	for _, ed := range edges {
		s.Edges = append(s.Edges, *ed)
	}
	sort.Slice(s.Edges, func(i, j int) bool {
		if s.Edges[i].Src != s.Edges[j].Src {
			return s.Edges[i].Src < s.Edges[j].Src
		}
		return s.Edges[i].Dst < s.Edges[j].Dst
	})
	return s
}
