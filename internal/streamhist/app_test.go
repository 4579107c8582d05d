package streamhist

import (
	"context"
	"strings"
	"testing"

	"repro/arch"
)

// TestRunStreamVerifies: a small observed run on the simulator windows
// the sample stream into exact histograms (the app's internal
// sequential recount), including a final partial window, and reports
// progress.
func TestRunStreamVerifies(t *testing.T) {
	// 2.5 windows of samples: exercises the Flush path for the partial
	// final histogram.
	size := SamplesPerWin*2 + SamplesPerWin/2
	s := arch.NewSettings(arch.WithProcs(5), arch.WithSize(size))
	var wins []arch.StreamWindow
	sum, rep, err := RunStream(context.Background(), s, func(w arch.StreamWindow) {
		wins = append(wins, w)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sum, "3 windowed 32-bin histograms") {
		t.Errorf("summary = %q", sum)
	}
	if rep.Msgs == 0 {
		t.Errorf("report carries no communication: %+v", rep)
	}
	if len(wins) == 0 {
		t.Fatal("no progress windows observed")
	}
	if last := wins[len(wins)-1]; last.Elems != 3 {
		t.Errorf("final window reports %d histograms, want 3", last.Elems)
	}
}

// TestBucketEdges pins the scoring function's boundaries.
func TestBucketEdges(t *testing.T) {
	if b := bucket(0); b != 0 {
		t.Errorf("bucket(0) = %d", b)
	}
	if b := bucket(0.999999999); b != Bins-1 {
		t.Errorf("bucket(~1) = %d, want %d", b, Bins-1)
	}
}

// TestSampleDeterministic: the source hash is a pure function of the
// index in [0, 1) — the property every backend's bit-identical replay
// rests on.
func TestSampleDeterministic(t *testing.T) {
	for _, i := range []int64{0, 1, 12345, 1 << 40} {
		a, b := sampleAt(i), sampleAt(i)
		if a != b {
			t.Fatalf("sampleAt(%d) not deterministic", i)
		}
		if a < 0 || a >= 1 {
			t.Fatalf("sampleAt(%d) = %g out of [0,1)", i, a)
		}
	}
}

// TestVerifyReportsLowestWindow: the parallel recount accepts a correct
// stream in batches of one to three histograms — a partial last window
// included — rejects one cut mid-histogram or missing its partial last
// window, and on one corrupted in two chunks names the lowest bad
// window, as the sequential recount it replaced would.
func TestVerifyReportsLowestWindow(t *testing.T) {
	const samples = 200*SamplesPerWin + 17
	hists := 201
	out := make([]float64, hists*Bins)
	for i := int64(0); i < samples; i++ {
		out[int(i/SamplesPerWin)*Bins+bucket(sampleAt(i))]++
	}
	var batches [][]float64
	for off, n := 0, 1; off < len(out); off, n = off+n*Bins, n%3+1 {
		batches = append(batches, out[off:min(off+n*Bins, len(out))])
	}
	if err := verify(batches, samples); err != nil {
		t.Fatalf("correct stream rejected: %v", err)
	}
	last := len(batches) - 1
	if err := verify(append(batches[:last:last], batches[last][Bins/2:]), samples); err == nil {
		t.Error("stream cut mid-histogram accepted")
	}
	if err := verify(append(batches[:last:last], batches[last][:len(batches[last])-Bins]), samples); err == nil {
		t.Error("stream missing its partial last window accepted")
	}
	out[200*Bins+1]++
	out[2*Bins+7]++
	err := verify(batches, samples)
	if err == nil || !strings.Contains(err.Error(), "window 2 bin 7 ") {
		t.Errorf("verify = %v, want window 2 bin 7 reported", err)
	}
}
