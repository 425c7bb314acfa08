package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"faircc/internal/sim"
)

// smoke shrinks a workload to a size the tier-1 tests can afford while
// keeping its code path: 8 hosts / 0.2 ms of traffic, or 4 senders.
func smoke(w workloadSpec) workloadSpec {
	if w.incast() {
		w.senders, w.flowBytes = 4, 200_000
		return w
	}
	w.ft = w.ft.Scaled(2, 2, 2)
	w.duration = 200 * sim.Microsecond
	return w
}

var smokeCache = map[string]*workloadResult{}

// smokeResult runs a workload at smoke size: two untraced reps and a
// traced one, finished as the suite would. Tests share the result.
func smokeResult(t *testing.T, w workloadSpec) *workloadResult {
	t.Helper()
	if r, ok := smokeCache[w.name]; ok {
		return r
	}
	w = smoke(w)
	r := &workloadResult{Name: w.name, spec: w}
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		traced := i == 2
		rep, err := runRep(w, 1, traced, dir)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		rep.Metrics["peak_rss_mb"] = 1 // the parent's to add; any value serves here
		if traced {
			r.Traced = rep
		} else {
			r.Reps = append(r.Reps, rep)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
		t.Errorf("%s: traced rep left no trace file: %v", w.name, err)
	}
	r.twinWallS = 1
	r.finish()
	smokeCache[w.name] = r
	return r
}

func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads {
		r := smokeResult(t, w)
		if r.Flows == 0 || r.Failed != 0 {
			t.Errorf("%s: %d of %d flows failed: %v", w.name, r.Failed, r.Flows, r.Failures)
		}
		if a, b, c := r.Reps[0].Digest, r.Reps[1].Digest, r.Traced.Digest; a != b || a != c {
			t.Errorf("%s: digests differ: %s %s traced %s", w.name, a, b, c)
		}
		for _, exact := range []string{"sim.events", "net.data_pkts"} {
			if a, b := r.Reps[0].Metrics[exact], r.Reps[1].Metrics[exact]; a == 0 || a != b {
				t.Errorf("%s: %s = %v then %v, want equal and non-zero", w.name, exact, a, b)
			}
		}
		if calls, acks := r.PerLayer["cc.on_ack_calls"], r.PerLayer["net.acks"]; calls <= 0 || calls > acks {
			t.Errorf("%s: cc.on_ack_calls = %v with %v acks", w.name, calls, acks)
		}
		for _, d := range endToEnd {
			if v := r.EndToEnd[d.Name].Median; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, v)
			}
		}
		if w.shards > 1 && r.PerLayer["sim.parallel.epochs"] == 0 {
			t.Errorf("%s: no epochs recorded for a sharded run", w.name)
		}
	}
}

// A digest mismatch between reps fails every flow of the workload.
func TestDigestMismatchFailsWorkload(t *testing.T) {
	r := &workloadResult{Reps: []*repResult{
		{Flows: 10, Digest: strings.Repeat("a", 64), Metrics: map[string]float64{}},
		{Flows: 10, Digest: strings.Repeat("b", 64), Metrics: map[string]float64{}},
	}}
	r.finish()
	if r.Flows != 20 || r.Failed != 20 || len(r.Failures) != 1 {
		t.Errorf("flows %d failed %d failures %v, want 20 20 and one reason", r.Flows, r.Failed, r.Failures)
	}
}

// BENCHMARK.json and the code name the same workloads and metrics, and
// every one of them appears in what the command prints.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	var bf benchmarkFile
	if err := readJSON("../BENCHMARK.json", &bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		why := bf.Workloads[i].Why
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q", i, bf.Workloads[i].Name, w.name)
		}
		if !nameRE.MatchString(w.name) || why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %q: bad name or why %q", w.name, why)
		}
	}

	var out bytes.Buffer
	r := smokeResult(t, workloads[3])
	r.print(&out, 1)
	printed := map[string]bool{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 2 {
			printed[f[0]+" "+f[1]] = true // name and unit
		}
	}
	check := func(kind string, defs []metricDef, names, units []string) {
		if len(names) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(names), len(defs))
		}
		inCode := map[string]string{}
		for _, d := range defs {
			inCode[d.Name] = d.Unit
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s %q: bad name or unit %q", kind, d.Name, d.Unit)
			}
		}
		for i, n := range names {
			if u, ok := inCode[n]; !ok || u != units[i] {
				t.Errorf("%s %q (%s) of BENCHMARK.json: the code has unit %q, known %v", kind, n, units[i], u, ok)
			}
			if !printed[n+" "+units[i]] {
				t.Errorf("%s %q (%s) of BENCHMARK.json is not in the printed output", kind, n, units[i])
			}
		}
	}
	var names, units []string
	setup := false
	for _, m := range bf.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 || m.Better != "lower" {
			t.Errorf("end_to_end %q: bound %v better %q", m.Name, m.Bound, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s")
	}
	if !setup {
		t.Error("end_to_end has no setup_s in s")
	}
	check("end_to_end", endToEnd, names, units)
	names, units = nil, nil
	for _, m := range bf.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per_layer %q: better %q", m.Name, m.Better)
		}
	}
	check("per_layer", perLayer, names, units)
	for _, d := range rawTotals {
		if !printed[d.Name+" "+d.Unit] {
			t.Errorf("total %q is not in the printed output", d.Name)
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	// Expected values are Python's statistics.median and
	// statistics.quantiles(xs, n=4).
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 5.5, 2.75, 8.25},
		{[]float64{5, 4, 3, 2, 1}, 3, 1.5, 4.5},
		{[]float64{3, 1}, 2, 0.5, 3.5},
		{[]float64{2, 4, 4, 5}, 4, 2.5, 4.75},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); m != c.med || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: median %v quartiles %v %v, want %v %v %v", c.xs, m, q1, q3, c.med, c.q1, c.q3)
		}
	}
	s := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.N != 10 || s.Min != 1 || s.spread() != 1 {
		t.Errorf("summary %+v spread %v, want n 10 min 1 spread 1", s, s.spread())
	}
	if !math.IsNaN(median(nil)) || summarize(nil).N != 0 {
		t.Error("no samples must give NaN median and an empty summary")
	}
	if p := percentile([]float64{1, 2, 3, 4, 5}, 50); p != 3 {
		t.Errorf("p50 = %v, want 3", p)
	}
	if p := percentile([]float64{0, 10}, 99); math.Abs(p-9.9) > 1e-9 {
		t.Errorf("p99 = %v, want 9.9", p)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"faircc/internal/sim.(*Engine).Step", "main.(*meter).stepBatches"}, "sim"},
		{[]string{"faircc/internal/sim.(*ladderQueue).push", "faircc/internal/sim.(*Engine).At", "faircc/internal/net.(*Port).kick"}, "sim"},
		{[]string{"faircc/internal/sim.(*barrier).wait", "faircc/internal/sim.(*Parallel).worker"}, "sim.parallel"},
		{[]string{"runtime.procyield", "faircc/internal/sim.(*barrier).wait"}, "sim.parallel"},
		{[]string{"faircc/internal/sim.(*Outbox).Send", "faircc/internal/net.(*Port).finishTx"}, "sim.parallel"},
		{[]string{"faircc/internal/net.(*Port).drain", "faircc/internal/sim.(*Engine).Step"}, "net.port"},
		{[]string{"faircc/internal/net.(*queue).push", "faircc/internal/net.(*Port).send"}, "net.port"},
		{[]string{"faircc/internal/net.(*Switch).Receive", "faircc/internal/net.(*shard).getPacket.func1"}, "net.switch"},
		{[]string{"faircc/internal/net.ecmpHash", "faircc/internal/net.(*Switch).route"}, "net.switch"},
		{[]string{"faircc/internal/net.(*Flow).trySend", "faircc/internal/net.(*Flow).onAck"}, "net.transport"},
		{[]string{"faircc/internal/net.(*Host).Receive"}, "net.transport"},
		{[]string{"faircc/internal/net.(*ccGate).run"}, "net.transport"},
		{[]string{"faircc/internal/net.(*shard).getPacket.func1", "faircc/internal/sim.(*Engine).Step"}, "net.other"},
		{[]string{"faircc/internal/cc/hpcc.(*HPCC).OnAck", "main.(*tracedAlgo).OnAck"}, "cc"},
		{[]string{"math.Exp", "faircc/internal/core.(*VAI).Update", "faircc/internal/cc/swift.(*Swift).OnAck"}, "cc"},
		{[]string{"faircc/internal/metrics.SampleQueue.func1", "faircc/internal/sim.(*Engine).Step"}, "metrics"},
		{[]string{"sort.Float64s", "faircc/internal/metrics.SlowdownAbove"}, "metrics"},
		{[]string{"faircc/internal/stats.Jain", "faircc/internal/metrics.SampleJain.func1"}, "metrics"},
		{[]string{"math/rand.(*Rand).ExpFloat64", "faircc/internal/workload.Poisson"}, "setup"},
		{[]string{"faircc/internal/topo.NewFatTree", "main.workloadSpec.build"}, "setup"},
		{[]string{"container/heap.down", "container/heap.Fix", "main.(*refKernel).slice"}, "bench"},
		{[]string{"runtime.memmove", "runtime.growslice", "faircc/internal/sim.(*ladderQueue).push"}, "runtime.mem"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "faircc/internal/net.(*shard).getPacket"}, "runtime.mem"},
		{[]string{"runtime.memclrNoHeapPointers", "faircc/internal/sim.(*ladderQueue).refill"}, "runtime.mem"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, "runtime.gc"},
		{[]string{"runtime.(*mspan).base", "runtime.gcAssistAlloc", "runtime.mallocgc", "faircc/internal/sim.(*ladderQueue).push"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, "runtime.other"},
		{[]string{"runtime.mapaccess1_fast64", "faircc/internal/net.(*Switch).lookupRoute"}, "net.switch"},
		{[]string{"syscall.Syscall", "os.(*File).Write"}, "other"},
		{nil, "other"},
	}
	known := map[string]bool{}
	for _, b := range shareBuckets {
		known[b] = true
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %q, want %q", c.stack, got, c.want)
		}
		if !known[c.want] {
			t.Errorf("bucket %q is not in shareBuckets", c.want)
		}
	}

	shares := cpuShares([]stackSample{
		{Stack: []string{"faircc/internal/sim.(*Engine).Step"}, Ns: 30},
		{Stack: []string{"faircc/internal/net.(*Port).drain"}, Ns: 50},
		{Stack: []string{"os.Getpid"}, Ns: 20},
	})
	sum := 0.0
	for _, b := range shareBuckets {
		sum += shares[b]
	}
	if shares["sim"] != 30 || shares["net.port"] != 50 || shares["other"] != 20 || math.Abs(sum-100) > 1e-9 || len(shares) != len(shareBuckets) {
		t.Errorf("shares %v sum %v", shares, sum)
	}
}

var spinSink uint64

func spinForProfile(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := uint64(0); i < 1e6; i++ {
			spinSink += i * i
		}
	}
}

// parseProfile reads what runtime/pprof writes.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, spin int64
	for _, s := range samples {
		total += s.Ns
		for _, fn := range s.Stack {
			if strings.HasSuffix(fn, ".spinForProfile") {
				spin += s.Ns
				break
			}
		}
	}
	// Under the race detector most samples stop in its C runtime, whose
	// frames do not unwind to the caller, so only some must.
	if total < int64(100*time.Millisecond) || spin == 0 {
		t.Errorf("parsed %d samples: %d ns in all, %d ns under spinForProfile", len(samples), total, spin)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

func TestRefKernelDeterministic(t *testing.T) {
	a, b := newRefKernel(), newRefKernel()
	for i := 0; i < 3; i++ {
		a.slice()
		b.slice()
	}
	if a.checksum() != b.checksum() || a.ops != 3*refOpsPerSlice || a.ns <= 0 {
		t.Errorf("checksums %x %x after %d ops in %d ns", a.checksum(), b.checksum(), a.ops, a.ns)
	}
	c := newRefKernel()
	c.slice()
	if c.checksum() == a.checksum() {
		t.Error("checksum does not depend on the work done")
	}
	if n := testing.AllocsPerRun(2, a.slice); n != 0 {
		t.Errorf("a reference slice allocates %v times; it runs inside the allocation deltas", n)
	}
}

func TestCompareVerdicts(t *testing.T) {
	tight := func(m float64) []float64 { return []float64{m * 0.99, m * 0.995, m, m * 1.005, m * 1.01} }
	wide := func(m float64) []float64 { return []float64{m * 0.8, m * 0.9, m, m * 1.1, m * 1.2} }
	cases := []struct {
		name  string
		a, b  []float64
		bound float64
		lower bool
		want  string
	}{
		{"unchanged", tight(100), tight(100.2), 0.10, true, "same"},
		{"slower beyond the bound", tight(100), tight(115), 0.10, true, "worse"},
		{"slower within the bound", tight(100), tight(105), 0.10, true, "same"},
		{"faster by more than the base's spread", tight(100), tight(90), 0.10, true, "better"},
		{"noisy and overlapping", wide(100), wide(104), 0.10, true, "unresolved"},
		{"noisy but every run faster", wide(100), wide(50), 0.10, true, "better"},
		{"noisy and every run slower", wide(100), wide(200), 0.10, true, "worse"},
		{"higher is better, fell", tight(100), tight(80), 0.10, false, "worse"},
		{"higher is better, rose", tight(100), tight(120), 0.10, false, "better"},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, c.bound, c.lower); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// -compare reads two result files and BENCHMARK.json, and reports worse.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64) string {
		r := &workloadResult{Name: "dc_hadoop32"}
		for i := 0; i < 5; i++ {
			m := map[string]float64{}
			for _, d := range endToEnd {
				m[d.Name] = 100 + float64(i)/10
			}
			m["refops_per_pkt"] *= scale
			r.Reps = append(r.Reps, &repResult{Flows: 1, Digest: strings.Repeat("a", 64), Metrics: m})
		}
		r.finish()
		path := filepath.Join(dir, name)
		if err := writeJSON(path, resultsFile{Workloads: []*workloadResult{r}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", 1), write("same.json", 1), write("slow.json", 2)
	var out bytes.Buffer
	if worse, err := compareFiles(&out, "../BENCHMARK.json", a, same); err != nil || worse {
		t.Errorf("identical sets: worse %v err %v\n%s", worse, err, out.String())
	}
	out.Reset()
	worse, err := compareFiles(&out, "../BENCHMARK.json", a, slow)
	if err != nil || !worse || !strings.Contains(out.String(), "worse") {
		t.Errorf("doubled refops_per_pkt: worse %v err %v\n%s", worse, err, out.String())
	}
	if n := strings.Count(out.String(), "dc_hadoop32"); n != len(endToEnd) {
		t.Errorf("%d rows for one workload, want one per end-to-end metric (%d)\n%s", n, len(endToEnd), out.String())
	}
}
