package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"dfpc"
)

// envStamp records where and on what a results document was measured,
// so numbers from different machines or commits can be told apart.
type envStamp struct {
	GoVersion  string         `json:"go_version"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	CPUModel   string         `json:"cpu_model"`
	Revision   string         `json:"vcs_revision"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Workloads  []workloadArgs `json:"workloads"`
}

// workloadArgs are the settings a workload ran with.
type workloadArgs struct {
	Name     string   `json:"name"`
	Datasets []string `json:"datasets"`
	Sample   []int    `json:"sample_rows"`
	DataSeed int64    `json:"data_seed"`
	Learner  string   `json:"learner"`
	Family   string   `json:"family"`
	MinSup   float64  `json:"min_sup"`
	TestFrac float64  `json:"test_frac"`
	Bulk     int      `json:"bulk_batches_per_part"`
	Floor    float64  `json:"accuracy_floor"`
	Fits     int      `json:"fit_units"`
	Rounds   int      `json:"predict_rounds"`
	Traced   int      `json:"traced_units"`
}

func stamp(seed int64, seconds float64, ws []*workload) envStamp {
	e := envStamp{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), Revision: "unknown", Seed: seed, Seconds: seconds,
	}
	modified := false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Revision = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	if modified {
		e.Revision += "+modified"
	}
	for _, w := range ws {
		a := workloadArgs{Name: w.name, DataSeed: dataSeed, Learner: w.learner.String(), Family: dfpc.PatFS.String(),
			MinSup: w.minSup, TestFrac: testFrac, Bulk: w.bulk, Floor: w.floor,
			Fits: reps(w.fits, seconds), Rounds: reps(w.rounds, seconds), Traced: reps(w.traced, seconds)}
		for _, p := range w.parts {
			a.Datasets = append(a.Datasets, p.dataset)
			a.Sample = append(a.Sample, p.sample)
		}
		e.Workloads = append(e.Workloads, a)
	}
	return e
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
