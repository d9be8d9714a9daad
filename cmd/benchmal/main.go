// Command benchmal regenerates the tables and figures of the paper's
// evaluation section (§4) over the four allocators in this repository.
//
// Usage:
//
//	benchmal [-exp all|table1|fig8a..fig8h|latency|space|unip|ablate|magazine|arenas|poolstripes|poolalgo|census|adapt|offload]
//	         [-threads 1,2,4,8,16] [-scale 0.01] [-allocs lockfree,hoard,...]
//	         [-procs N] [-telemetry] [-magazine N] [-arenas N] [-descstripes N]
//	         [-descalgo freelist|consttime] [-adapt] [-offload N] [-offloadbatch N]
//	         [-samplerate N] [-json] [-list] [-v]
//
// -scale 1.0 runs the paper's full parameters (10M malloc/free pairs
// per thread, 30-second timed phases); the default 0.01 finishes each
// experiment in seconds and preserves the qualitative shape.
//
// -telemetry attaches the lock-free observability layer to every
// lock-free allocator, so each measurement line carries CAS
// retries/op and malloc latency quantiles. It is off by default so
// tables compare bare allocators: the baselines carry no hook, and
// with it on the lock-free allocator ran at 0.92x its bare speed on
// Threadtest and Larson (2-vCPU Xeon VM). Experiments that read
// telemetry (census, adapt, the layer comparisons) attach it
// regardless, and -samplerate implies it. -magazine N enables the
// thread-local magazine layer (Config.MagazineSize=N) on every
// lock-free allocator; the magazine experiment compares off/on
// regardless of this flag.
// -arenas N shards every allocator's OS layer into N region arenas
// (0 = one per processor heap, the default; 1 = the unsharded global
// layout); the arenas experiment compares 1 vs per-processor
// regardless of this flag. -descstripes N likewise sets the
// descriptor-pool freelist stripe count on every lock-free allocator
// (0 = one per processor, 1 = the paper's single DescAvail list); the
// poolstripes experiment compares 1 vs per-processor regardless of
// this flag. -descalgo selects the descriptor pool's recycling backend
// (freelist = the paper's Figure-7 tagged freelist, consttime = the
// Blelloch-Wei constant-time batch scheme); the poolalgo experiment
// compares the two regardless of this flag. -adapt builds every
// lock-free allocator with the runtime-mutable policy surface and runs
// an adaptive controller (internal/adapt) beside each measurement; the
// adapt experiment compares static vs adaptive regardless of this
// flag. -offload N routes every lock-free allocator's malloc/free
// traffic through N dedicated allocation-core goroutines
// (internal/offload); -offloadbatch sets the request batch size; the
// offload experiment compares magazines vs offload regardless of
// these flags. -samplerate N enables the allocation sampler (one sample
// per N mallocs) on every telemetry recorder, adding a census digest —
// fragmentation and live-block ages — to each measurement (0 = off,
// the default, preserving the bare telemetry cost); the census
// experiment compares off/on regardless of this flag. -json
// additionally writes every individual measurement to a
// BENCH_<unixtime>.json file.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/report"
)

// jsonReport is the schema of the BENCH_*.json file: run parameters
// plus every individual measurement in the order taken.
type jsonReport struct {
	TakenUnixNano int64          `json:"takenUnixNano"`
	GoMaxProcs    int            `json:"gomaxprocs"`
	NumCPU        int            `json:"numcpu"`
	Scale         float64        `json:"scale"`
	Threads       []int          `json:"threads"`
	Experiments   []string       `json:"experiments"`
	Telemetry     bool           `json:"telemetry"`
	Magazine      int            `json:"magazine,omitempty"`
	Arenas        int            `json:"arenas,omitempty"`
	DescStripes   int            `json:"descStripes,omitempty"`
	DescAlgo      string         `json:"descAlgo,omitempty"`
	Adapt         bool           `json:"adapt,omitempty"`
	Offload       int            `json:"offload,omitempty"`
	OffloadBatch  int            `json:"offloadBatch,omitempty"`
	SampleRate    int            `json:"sampleRate,omitempty"`
	Results       []bench.Result `json:"results"`
}

func main() {
	var (
		expFlag     = flag.String("exp", "all", "experiment id (or comma list, or 'all')")
		threadsFlag = flag.String("threads", "1,2,4,8,16", "comma-separated thread counts")
		scaleFlag   = flag.Float64("scale", 0.01, "fraction of the paper's full parameters (1.0 = full)")
		allocsFlag  = flag.String("allocs", "", "comma-separated allocators (default: all)")
		procsFlag   = flag.Int("procs", 0, "processor heaps per allocator (default: max threads)")
		teleFlag    = flag.Bool("telemetry", false, "attach the telemetry layer to lock-free allocators (retries/op and latency per row)")
		allocFlags  = bench.RegisterAllocFlags(flag.CommandLine)
		rateFlag    = flag.Int("samplerate", 0, "allocation sampling period for census columns (0 = sampler off)")
		jsonFlag    = flag.Bool("json", false, "write all measurements to a BENCH_<unixtime>.json file")
		listFlag    = flag.Bool("list", false, "list experiments and exit")
		verboseFlag = flag.Bool("v", false, "print every individual measurement")
	)
	flag.Parse()

	descAlgo, err := allocFlags.DescAlgo()
	if err != nil {
		fatal("%v", err)
	}

	if *listFlag {
		for _, e := range report.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	// The sampler lives in the telemetry recorder.
	tele := *teleFlag || *rateFlag > 0

	threads, err := parseInts(*threadsFlag)
	if err != nil {
		fatal("invalid -threads: %v", err)
	}
	cfg := report.RunConfig{
		Threads:     threads,
		Scale:       *scaleFlag,
		Processors:  *procsFlag,
		Telemetry:   tele,
		Magazine:    *allocFlags.Magazine,
		Arenas:      *allocFlags.Arenas,
		DescStripes: *allocFlags.DescStripes,
		DescAlgo:    descAlgo,
		Adapt:       *allocFlags.Adapt,
		Offload:     core.OffloadConfig{Cores: *allocFlags.Offload, Batch: *allocFlags.OffloadBatch},
		SampleRate:  *rateFlag,
	}
	if *allocsFlag != "" {
		cfg.Allocators = strings.Split(*allocsFlag, ",")
	}

	var results []bench.Result
	if *jsonFlag {
		cfg.Record = func(r bench.Result) { results = append(results, r) }
	}

	var ids []string
	if *expFlag == "all" {
		for _, e := range report.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*expFlag, ",")
	}

	fmt.Printf("benchmal: GOMAXPROCS=%d NumCPU=%d scale=%g threads=%v\n\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), *scaleFlag, threads)

	for _, id := range ids {
		e, ok := report.ByID(strings.TrimSpace(id))
		if !ok {
			fatal("unknown experiment %q (use -list)", id)
		}
		fmt.Printf("==== %s: %s ====\n", e.ID, e.Title)
		if e.Paper != "" {
			fmt.Printf("paper: %s\n\n", e.Paper)
		}
		var out io.Writer = os.Stdout
		if !*verboseFlag {
			out = &filterComments{w: os.Stdout}
		}
		if err := e.Run(cfg, out); err != nil {
			fatal("%s: %v", e.ID, err)
		}
		fmt.Println()
	}

	if *jsonFlag {
		rep := jsonReport{
			TakenUnixNano: time.Now().UnixNano(),
			GoMaxProcs:    runtime.GOMAXPROCS(0),
			NumCPU:        runtime.NumCPU(),
			Scale:         *scaleFlag,
			Threads:       threads,
			Experiments:   ids,
			Telemetry:     tele,
			Magazine:      *allocFlags.Magazine,
			Arenas:        *allocFlags.Arenas,
			DescStripes:   *allocFlags.DescStripes,
			DescAlgo:      descAlgo.String(),
			Adapt:         *allocFlags.Adapt,
			Offload:       *allocFlags.Offload,
			OffloadBatch:  *allocFlags.OffloadBatch,
			SampleRate:    *rateFlag,
			Results:       results,
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal("marshal results: %v", err)
		}
		name := fmt.Sprintf("BENCH_%d.json", time.Now().Unix())
		if err := os.WriteFile(name, append(data, '\n'), 0o644); err != nil {
			fatal("write %s: %v", name, err)
		}
		fmt.Printf("wrote %d measurements to %s\n", len(results), name)
	}
}

// filterComments drops lines starting with "# " (per-measurement
// detail) unless -v is given.
type filterComments struct {
	w   io.Writer
	buf []byte
}

func (f *filterComments) Write(p []byte) (int, error) {
	f.buf = append(f.buf, p...)
	for {
		i := bytes.IndexByte(f.buf, '\n')
		if i < 0 {
			break
		}
		line := f.buf[:i+1]
		if !(len(line) >= 2 && line[0] == '#' && line[1] == ' ') {
			if _, err := f.w.Write(line); err != nil {
				return len(p), err
			}
		}
		f.buf = f.buf[i+1:]
	}
	return len(p), nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, fmt.Errorf("thread count %d < 1", n)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmal: "+format+"\n", args...)
	os.Exit(1)
}
