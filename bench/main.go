// Command bench is the repository's one benchmark: five workloads over the
// whole stack (kernels and archetype libraries, the message fabric, the
// remote substrate, streams, the archetype service), each checked against
// a reference, with end-to-end metrics measured with tracing off and a
// separate traced pass for the per-layer numbers. See README.md.
//
//	go run ./bench -seed 1                 every workload, untraced
//	go run ./bench -seed 1 -trace 1        the traced pass: per-layer metrics, bench/out/*.trace.json
//	go run ./bench -seed 1 -aa             the untraced suite twice; fails if the two sets disagree
//	go run ./bench -workload remote        one workload
//	go run ./bench -list                   workloads and metrics, with the reason each exists
//
// The driver's form is `go run ./bench --workload W --seed N --seconds S
// --trace 0|1`; the last line of output is then the result object
// BENCHMARK.json describes.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	_ "repro/arch/apps"
	"repro/internal/backend/dist"
	"repro/internal/elastic"
)

// workload is one named set of inputs. Names are final: later issues cite
// them. A round-based workload lists its ops; serve-mixed has none.
type workload struct {
	name  string
	why   string
	partA string
	partB string
	ops   []op
}

var workloads = []workload{
	{
		name:  "batch-compute",
		why:   "kernels and archetype libraries do nearly all the work and the fabric almost none: a kernel gain must move it, a fabric gain must not",
		partA: "mergesort@2^21 + fft@512 + cfd@128 on real at P=1",
		partB: "the same three at P=2",
		ops: []op{
			{"mergesort", 1 << 21, 1, "real", 0, "sortapp.p1_ms"},
			{"fft", 512, 1, "real", 0, "fft.p1_ms"},
			{"cfd", 128, 1, "real", 0, "cfd.p1_ms"},
			{"mergesort", 1 << 21, P2, "real", 1, "sortapp.p2_ms"},
			{"fft", 512, P2, "real", 1, "fft.p2_ms"},
			{"cfd", 128, P2, "real", 1, "cfd.p2_ms"},
		},
	},
	{
		name:  "batch-comm",
		why:   "poisson@41 sends 13,398 small messages at P=2 around an unchanged kernel: mailbox wake-up, box+price and AllReduce do most of the P=2 work, so a fabric gain shows here",
		partA: "poisson@41 on real at P=1 (the kernel alone)",
		partB: "poisson@41 on real at P=2",
		ops: []op{
			{"poisson", 41, 1, "real", 0, "poisson.p1_ms"},
			{"poisson", 41, P2, "real", 1, "poisson.p2_ms"},
		},
	},
	{
		name:  "remote",
		why:   "the same Send/Recv layer through the wire codec and a socket instead of a mailbox; world start is inside every op, as users pay it; its two apps pull the codec in opposite directions",
		partA: "mergesort@2^19 on registry dist at P=2: 4 messages of ~262 KiB, byte-bound",
		partB: "poisson@33 on registry dist at P=2: 8,942 small messages, latency-bound",
		ops: []op{
			{"mergesort", 1 << 19, P2, "dist", 0, "dist.sortapp_ms"},
			{"poisson", 33, P2, "dist", 1, "dist.poisson_ms"},
		},
	},
	{
		name:  "stream",
		why:   "sustained throughput through credit backpressure, not time-to-result; the pipeline->stream consolidation on the roadmap must hold both apps",
		partA: "streamfft@2048 frames on real, 4 ranks: 32 KiB messages, FFT-bound stages",
		partB: "streamhist@2^23 samples on real, 4 ranks: 196,611 small messages, fabric- and credit-bound",
		ops: []op{
			{"streamfft", 2048, streamRanks, "real", 0, "stream.fft_ms"},
			{"streamhist", 1 << 23, streamRanks, "real", 1, "stream.hist_ms"},
		},
	},
	{
		name:  "serve-mixed",
		why:   "the only workload with serve, sched.Flight, rescache and the sim transport on the path; cache reads beside writes; a restart halfway separates the job table from the disk cache",
		partA: "cold requests (20%): never-seen sim specs, POST then SSE to the terminal event",
		partB: "warm requests (80%): Zipf-like repeats of completed specs, terminal on the POST",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// defaultSeconds is the timed window; BENCHMARK.json's run_seconds is the
// same number (the smoke test checks).
const defaultSeconds = 18

// childDeadline bounds one workload process: past it the parent kills the
// process group and reports the workload as failed.
const childDeadline = 170 * time.Second

func defaultConfig() config {
	return config{seed: 1, seconds: defaultSeconds, minRounds: 4, setupReps: 5, probeCalls: 1000, roundReqs: 2000, outDir: filepath.Join("bench", "out")}
}

func tracePath(cfg config, workload string) string {
	return filepath.Join(cfg.outDir, workload+".trace.json")
}

// runWorkload runs one workload in this process.
func runWorkload(cfg config, w workload) (*results, error) {
	// speedup_p2 on one processor would be a scheduling artefact.
	if runtime.GOMAXPROCS(0) < P2 {
		return nil, fmt.Errorf("GOMAXPROCS is %d: the benchmark needs %d processors to time P=%d runs", runtime.GOMAXPROCS(0), P2, P2)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	if w.ops == nil {
		return runServeMixed(cfg, w)
	}
	return runRounds(cfg, w)
}

func main() {
	mainStart := time.Now()
	dist.MaybeWorker()
	elastic.MaybeWorker()

	cfg := defaultConfig()
	var (
		name    = flag.String("workload", "", "run one workload (default: all; see -list)")
		trace   = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced pass, per-layer metrics")
		aa      = flag.Bool("aa", false, "run the untraced suite twice and fail if any end-to-end metric differs by more than its bound")
		list    = flag.Bool("list", false, "print workloads and metrics with the reason each exists")
		child   = flag.Bool("child", false, "internal: run -workload in this process")
		spawned = flag.Int64("spawned", 0, "internal: when the parent started this process, Unix ns")
	)
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seed for op order and the serve request stream")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "length of the timed window")
	flag.Parse()
	cfg.traced = *trace != 0

	if *list {
		printList(os.Stdout)
		return
	}
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fatalf("unknown workload %q (see -list)", *name)
		}
		selected = []workload{w}
	}

	if *child {
		if *spawned != 0 {
			cfg.startup = mainStart.Sub(time.Unix(0, *spawned)).Seconds()
		}
		res, err := runWorkload(cfg, selected[0])
		if err != nil {
			fatalf("%s: %v", selected[0].name, err)
		}
		if err := res.write(os.Stdout, cfg.traced); err != nil {
			fatalf("%s: %v", selected[0].name, err)
		}
		return
	}

	printHeader(os.Stdout, cfg)
	first, err := runSuite(cfg, selected)
	if err != nil {
		fatalf("%v", err)
	}
	if *aa {
		second, err := runSuite(cfg, selected)
		if err != nil {
			fatalf("%v", err)
		}
		if !compareAA(os.Stdout, first, second) {
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

// suiteResult is the metric lines of one pass over the selected workloads.
type suiteResult map[string]map[string]metricLine // workload -> metric -> line

// runSuite runs each workload in a fresh child process of this binary, in
// its own process group, relays its output, and reaps whatever the child
// left behind (a timed-out dist world leaves worker processes).
func runSuite(cfg config, selected []workload) (suiteResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := suiteResult{}
	for _, w := range selected {
		lines, err := runChild(exe, cfg, w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		out[w.name] = lines
	}
	return out, nil
}

func runChild(exe string, cfg config, w workload) (map[string]metricLine, error) {
	trace := "0"
	if cfg.traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-child", "-workload", w.name,
		"-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds), "-trace", trace,
		"-spawned", fmt.Sprint(time.Now().UnixNano()))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	// Keep the program's temporary files (dist's unix sockets) inside the
	// checkout, unless that would push a socket path past sun_path's 108
	// bytes and silently move dist onto TCP.
	if tmp, err := filepath.Abs(filepath.Join(cfg.outDir, "tmp")); err == nil && len(tmp) <= 64 {
		if err := os.MkdirAll(tmp, 0o755); err != nil {
			return nil, err
		}
		cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// The child has its own process group, so a signal to this process
	// does not reach it: kill the group on the deadline, on SIGINT and on
	// SIGTERM, and in any case once the child has exited.
	pgid := cmd.Process.Pid
	defer reapGroup(pgid)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, childDeadline)
	defer cancel()
	go func() {
		<-ctx.Done()
		_ = syscall.Kill(-pgid, syscall.SIGKILL) // ESRCH once the group is gone
	}()

	lines := map[string]metricLine{}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20) // the traced result line names every layer metric
	for sc.Scan() {
		fmt.Println(sc.Text())
		var l metricLine
		if json.Unmarshal(sc.Bytes(), &l) == nil && l.Name != "" {
			lines[l.Name] = l
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("workload process: %w", err)
	}
	return lines, nil
}

// reapGroup kills what is left of a child's process group and waits until
// it is gone.
func reapGroup(pgid int) {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if err := syscall.Kill(-pgid, syscall.SIGKILL); errors.Is(err, syscall.ESRCH) {
			return
		}
	}
	fmt.Fprintf(os.Stderr, "bench: process group %d did not exit\n", pgid)
}

// compareAA prints the relative spread of every end-to-end metric between
// two passes and reports whether all are within their bounds.
func compareAA(w io.Writer, a, b suiteResult) bool {
	ok := true
	fmt.Fprintln(w, "# A/A: relative difference of each end-to-end metric between two passes of the same code")
	for _, wl := range workloads {
		for _, d := range defs {
			la, inA := a[wl.name][d.Name]
			lb, inB := b[wl.name][d.Name]
			if d.Kind == kindLayer || !inA || !inB {
				continue
			}
			diff := 0.0
			if la.Value != lb.Value {
				diff = math.Abs(la.Value-lb.Value) / math.Max(math.Abs(la.Value), math.Abs(lb.Value))
			}
			verdict := "ok"
			if diff > d.Bound {
				verdict, ok = "OUT OF BOUND", false
			}
			fmt.Fprintf(w, "# %-14s %-14s %12.4f %12.4f  diff %6.2f%%  bound %4.0f%%  %s\n",
				wl.name, d.Name, la.Value, lb.Value, diff*100, d.Bound*100, verdict)
		}
	}
	return ok
}

// printHeader records what the numbers were measured on.
func printHeader(w io.Writer, cfg config) {
	fmt.Fprintf(w, "# bench: %s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s seed=%d seconds=%g traced=%t\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), commit(), cfg.seed, cfg.seconds, cfg.traced)
}

func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

// printList prints every workload with its reason and every metric with
// its unit, direction and what it measures.
func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-14s %s\n  %14s part A: %s\n  %14s part B: %s\n", wl.name, wl.why, "", wl.partA, "", wl.partB)
	}
	fmt.Fprintln(w, "metrics:")
	for _, d := range defs {
		fmt.Fprintf(w, "  %-28s %-7s %-6s %-6s %s\n", d.Name, d.Unit, d.Kind, d.better(), d.What)
	}
}
