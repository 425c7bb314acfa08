package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"faircc/internal/cc"
	"faircc/internal/metrics"
	"faircc/internal/net"
	"faircc/internal/sim"
	"faircc/internal/topo"
)

// repResult is what one rep (one child process) measures: every metric it
// can compute on its own, by name. The parent adds what needs the process
// from outside (peak_rss_mb) or more than one rep (trace.overhead_pct,
// sim.parallel.speedup, the untraced medians).
type repResult struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Traced   bool               `json:"traced"`
	Flows    int                `json:"flows"`        // attempted: traffic x variants
	Failed   int                `json:"flows_failed"` // see verify
	Failures []string           `json:"failures,omitempty"`
	Digest   string             `json:"digest"` // sha256 over every simulated result
	Metrics  map[string]float64 `json:"metrics"`
}

const (
	// batchSteps is how many Steps run between clock reads. At 50-300 ns
	// per event a batch is 3-20 ms: long enough that the two clock reads
	// vanish, short enough to place a reference slice every refEvery.
	batchSteps = 1 << 16
	// refShareSharded is the reference's share of a sharded run's time. A
	// Parallel.Run cannot be interleaved (it is single-use and keeps both
	// cores busy until it returns), so the reference runs in one window
	// after each run, sized from the run: ~0.3 s of slices per 3 s variant.
	// Windows a third as long left the reference noisier than the drift
	// it corrects (10% same-seed spread against 3%).
	refShareSharded = 0.10
	// An untraced rep repeats the whole set-up after its runs, so setup_s
	// is a median and not one cold sample: until setupBudget is spent and
	// at least minSetups are timed, or maxSetups are (a 0.4 ms incast
	// set-up needs many repeats for a steady median, a 50 ms one cannot
	// afford them). The repeats come last so the run phase sees the heap
	// exactly as a plain program would, and each starts from a collected
	// heap, as the first one does. A reference slice runs between them
	// every setupRefEvery of set-up time.
	minSetups     = 3
	maxSetups     = 200
	setupBudget   = 500 * time.Millisecond
	setupRefEvery = 20 * time.Millisecond
	// refNominalNs is the reference operation's time on the reference box
	// in a quiet phase. setup_s is reported in seconds at that speed -
	// measured seconds x refNominalNs / the reference's measured ns per op
	// - because, like the run time, raw set-up time follows the box's
	// drift: its median moved 19% between two consecutive ten-run sweeps
	// while the calibrated run time moved 0.4%.
	refNominalNs = 160.0
)

// simRun is one variant's simulation, built and ready to step.
type simRun struct {
	eng   *sim.Engine
	nw    *net.Network
	jain  *metrics.Series // incast only
	queue *metrics.Series
	ccs   []*ccTrace // traced only: one per shard
}

// meter accumulates the run-phase measurements over a rep's variants.
type meter struct {
	ref  *refKernel
	tr   *tracer // nil when untraced
	wall time.Duration

	// Sharded runs only: process CPU over the Parallel.Run calls, and their
	// barrier-synchronized windows.
	cpu    time.Duration
	epochs uint64

	allocB    uint64
	mallocs   uint64
	gcCycles  uint32
	gcPauseNs uint64

	batchNs    []float64 // traced: ns per event of each full batch
	pendingSum float64
	batches    int
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run executes one variant's simulation to completion. Sequentially it
// is the experiment loop of internal/exp - AllFinished checked before
// every Step - cut into batches so a reference slice can run between
// them; the stepping sequence, and so every simulated result, is the
// same as the bare loop's.
func (m *meter) run(r *simRun) error {
	defer m.tr.begin("sim.run")()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var err error
	if r.nw.Shards() > 1 {
		err = m.runParallel(r.nw)
	} else {
		m.stepBatches(r.eng, r.nw)
	}
	runtime.ReadMemStats(&after)
	m.allocB += after.TotalAlloc - before.TotalAlloc
	m.mallocs += after.Mallocs - before.Mallocs
	m.gcCycles += after.NumGC - before.NumGC
	m.gcPauseNs += after.PauseTotalNs - before.PauseTotalNs
	return err
}

func (m *meter) runParallel(nw *net.Network) error {
	if m.ref.ops == 0 {
		m.ref.slice() // so the first window has a slice time to size itself by
	}
	cpu0, t0 := processCPU(), time.Now()
	pr := nw.NewParallel()
	err := pr.Run()
	dt := time.Since(t0)
	m.wall += dt
	m.cpu += processCPU() - cpu0
	m.epochs += pr.Epochs()
	slice := m.ref.nsPerOp() * refOpsPerSlice
	for n := int(refShareSharded*float64(dt.Nanoseconds())/slice) + 1; n > 0; n-- {
		m.ref.slice()
	}
	return err
}

func (m *meter) stepBatches(eng *sim.Engine, nw *net.Network) {
	m.ref.slice()
	var sinceRef time.Duration
	for {
		t0 := time.Now()
		n := 0
		for n < batchSteps && !nw.AllFinished() && eng.Step() {
			n++
		}
		dt := time.Since(t0)
		m.wall += dt
		if m.tr != nil && n > 0 {
			m.tr.leaf("sim.run.batch", t0, dt)
			if n == batchSteps {
				m.batchNs = append(m.batchNs, float64(dt.Nanoseconds())/batchSteps)
			}
			m.pendingSum += float64(eng.Pending())
			m.batches++
		}
		if n < batchSteps {
			break
		}
		if sinceRef += dt; sinceRef >= refEvery {
			m.ref.slice()
			sinceRef = 0
		}
	}
	m.ref.slice()
}

// build sets up one variant: topology and routes (and the shard split),
// then every flow with a fresh algorithm instance. It returns the two
// phase durations beside the run.
func (w workloadSpec) build(seed int64, specs []net.FlowSpec, mk func() cc.Algorithm, tr *tracer) (r *simRun, topoD, flowsD time.Duration) {
	end := tr.begin("topo.build")
	r = &simRun{eng: sim.NewEngine()}
	r.nw = net.New(r.eng, seed)
	var assign []int // node id -> shard, nil when sequential
	var queuePort *net.Port
	if w.incast() {
		st := topo.NewStar(r.nw, w.senders+1, starRate, starDelay)
		queuePort = st.HostPorts[w.senders]
	} else {
		ft := topo.NewFatTree(r.nw, w.ft)
		if w.shards > 1 {
			var k int
			assign, k = ft.ShardMap(w.shards)
			r.nw.Shard(assign, k)
		}
	}
	topoD = end()

	end = tr.begin("net.add_flows")
	if tr != nil {
		// One ccTrace per shard: a flow's OnAck runs on its source host's
		// shard, so shards never share a counter.
		r.ccs = make([]*ccTrace, r.nw.Shards())
		for i := range r.ccs {
			r.ccs[i] = &ccTrace{}
		}
	}
	for _, spec := range specs {
		algo := mk()
		if tr != nil {
			sh := 0
			if assign != nil {
				sh = assign[spec.Src]
			}
			algo = &tracedAlgo{Algorithm: algo, t: r.ccs[sh]}
		}
		r.nw.AddFlow(spec, algo)
	}
	if w.incast() {
		// The samplers of exp.runIncast: goodput Jain index at an interval
		// that lets a fair share deliver ~10 packets, and the bottleneck
		// queue every microsecond.
		jainEvery := sim.Time(float64(w.senders) * float64(r.nw.MTU+r.nw.HeaderBytes) * 8 * 10 / starRate * 1e12)
		if jainEvery < 5*sim.Microsecond {
			jainEvery = 5 * sim.Microsecond
		}
		r.jain = metrics.SampleJain(r.nw, "jain", jainEvery, 0, samplerHorizon)
		r.queue = metrics.SampleQueue(r.eng, queuePort, "queue", sim.Microsecond, 0, samplerHorizon)
	}
	flowsD = end()
	return r, topoD, flowsD
}

// verify is the correctness gate of one finished variant. It returns how
// many of the variant's flows count as failed: the unfinished ones, or
// all of them when an invariant of these lossless workloads is broken -
// conservation, zero drops / retransmits / RTO fires, one ACK per data
// packet that reached a receiver.
func verify(key string, nw *net.Network, runErr error) (failed int, why []string) {
	st := nw.Stats()
	fail := func(format string, args ...any) {
		why = append(why, key+": "+fmt.Sprintf(format, args...))
		failed = st.FlowsTotal
	}
	if n := st.FlowsTotal - st.FlowsFinished; n > 0 {
		why = append(why, fmt.Sprintf("%s: %d of %d flows did not finish", key, n, st.FlowsTotal))
		failed = n
	}
	if runErr != nil {
		fail("parallel run: %v", runErr)
	}
	if err := nw.CheckConservation(); err != nil {
		fail("conservation: %v", err)
	}
	if st.Drops() != 0 || st.Retransmits != 0 || st.RTOFires != 0 {
		fail("lossless workload saw %d drops, %d retransmits, %d RTO fires", st.Drops(), st.Retransmits, st.RTOFires)
	}
	if st.AcksSent != st.DataDelivered+st.DataOutOfSeq {
		fail("ACK conservation: %d acks for %d delivered + %d out-of-sequence data packets",
			st.AcksSent, st.DataDelivered, st.DataOutOfSeq)
	}
	return failed, why
}

// jainConvergeUs is exp.runIncast's convergence measure: the first time
// after the last flow joined at which the 5-sample moving average of the
// Jain index reaches 0.9, in microseconds (-1 if it never does).
func jainConvergeUs(jain *metrics.Series, senders int) float64 {
	lastStart := sim.Time((senders-1)/incastGroup) * incastEvery
	const window = 5
	var ys []float64
	sum := 0.0
	for _, p := range jain.Points {
		if p.T < lastStart {
			continue
		}
		ys = append(ys, p.V)
		sum += p.V
		n := len(ys)
		if n > window {
			sum -= ys[n-1-window]
			n = window
		}
		if sum/float64(n) >= 0.9 {
			return p.T.Microseconds()
		}
	}
	return -1
}

// runRep measures one rep of a workload in this process. outDir receives
// the trace and CPU profile of a traced rep.
func runRep(w workloadSpec, seed int64, traced bool, outDir string) (*repResult, error) {
	var tr *tracer
	var prof bytes.Buffer
	if traced {
		tr = newTracer()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile() // no-op after the explicit stop below
	}
	res := &repResult{Workload: w.name, Seed: seed, Traced: traced, Metrics: map[string]float64{}}
	mx := res.Metrics
	m := &meter{ref: newRefKernel(), tr: tr}
	digest := sha256.New()
	ccByVariant := map[string]*ccTrace{}

	var (
		genD, topoD, flowsD, verifyD, collectD time.Duration
		total                                  counters
		samples                                int
	)

	endRep := tr.begin("rep")
	end := tr.begin("workload.generate")
	specs := w.traffic(seed)
	genD = end()
	end = tr.begin("topo.build") // sizing the variants probes a scratch copy of the topology
	params := w.pathParams()
	topoD = end()

	for _, key := range w.variants {
		endVariant := tr.begin("variant." + key)
		r, td, fd := w.build(seed, specs, algoMaker(key, params), tr)
		topoD += td
		flowsD += fd

		runErr := m.run(r)

		end = tr.begin("net.verify")
		failed, why := verify(key, r.nw, runErr)
		verifyD += end()
		res.Flows += len(specs)
		res.Failed += failed
		res.Failures = append(res.Failures, why...)

		end = tr.begin("metrics.collect")
		records := metrics.CollectFinished(r.nw)
		samples += len(records)
		if w.incast() {
			maxQ := 0.0
			for _, p := range r.queue.Points {
				if p.V > maxQ {
					maxQ = p.V
				}
			}
			samples += len(r.jain.Points) + len(r.queue.Points)
			mx["model.jain_converge_us."+key] = jainConvergeUs(r.jain, w.senders)
			mx["model.max_queue_kb."+key] = maxQ / 1000
		} else {
			metrics.BucketBySize(records, 100, 99.9) // the figure's curve: timed, not reported
			if sd, err := metrics.SlowdownAbove(records, 1_000_000, 99.9); err == nil {
				mx["model.p999_slowdown_long."+key] = sd
			}
			if sd, err := metrics.SlowdownAbove(records, 0, 50); err == nil {
				mx["model.p50_slowdown."+key] = sd
			}
		}
		collectD += end()

		// Engine and network counters, and the digest of everything the
		// simulation computed.
		v := total.add(r.nw)
		fmt.Fprintf(digest, "%s events=%d scheduled=%d data=%d acks=%d pool_gets=%d\n",
			key, v.events, v.scheduled, v.net.DataDelivered, v.net.AcksSent, v.net.PoolGets)
		var buf [16]byte
		for _, rec := range records {
			binary.LittleEndian.PutUint64(buf[:8], uint64(rec.ID))
			binary.LittleEndian.PutUint64(buf[8:], uint64(rec.FCT))
			digest.Write(buf[:])
		}
		if tr != nil {
			sum := &ccTrace{}
			for _, c := range r.ccs {
				sum.add(c)
			}
			ccByVariant[key] = sum
		}
		endVariant()
	}
	endRep()

	setups := []float64{(genD + topoD + flowsD).Seconds()}
	setupRef := m.ref // a traced rep times its one set-up against the run phase's reference
	if !traced {
		setupRef = newRefKernel()
		sinceRef := time.Duration(setupRefEvery)
		for spent := time.Duration(0); len(setups) < maxSetups && (len(setups) < minSetups || spent < setupBudget); {
			if sinceRef >= setupRefEvery {
				setupRef.slice()
				sinceRef = 0
			}
			runtime.GC()
			t0 := time.Now()
			sp := w.traffic(seed)
			p := w.pathParams()
			for _, key := range w.variants {
				w.build(seed, sp, algoMaker(key, p), nil)
			}
			d := time.Since(t0)
			spent += d
			sinceRef += d
			setups = append(setups, d.Seconds())
		}
		setupRef.slice()
	}

	res.Digest = hex.EncodeToString(digest.Sum(nil))
	pkts := float64(total.net.DataDelivered)
	wallS := m.wall.Seconds()
	refNs := m.ref.nsPerOp()

	// End to end, and the whole-run totals printed beside them.
	mx["setup_s"] = median(setups) * refNominalNs / setupRef.nsPerOp()
	mx["setup_raw_s"] = median(setups)
	mx["refops_per_pkt"] = wallS * 1e9 / refNs / pkts
	mx["wall_s"] = wallS
	mx["alloc_mb"] = float64(m.allocB) / 1e6
	mx["allocs_k"] = float64(m.mallocs) / 1e3
	mx["ref_ns_per_op"] = refNs

	// Per layer.
	mx["workload.generate_s"] = genD.Seconds()
	mx["workload.flows"] = float64(len(specs))
	mx["topo.build_s"] = topoD.Seconds()
	mx["net.add_flows_s"] = flowsD.Seconds()
	mx["net.verify_s"] = verifyD.Seconds()
	total.report(mx)
	mx["sim.ns_per_event"] = wallS * 1e9 / float64(total.events)
	mx["sim.events_per_s"] = float64(total.events) / wallS
	if w.shards > 1 {
		mx["sim.parallel.cpu_per_wall"] = m.cpu.Seconds() / wallS
		mx["sim.parallel.epochs"] = float64(m.epochs)
		mx["sim.parallel.events_per_epoch"] = float64(total.events) / float64(m.epochs)
	}
	mx["metrics.collect_s"] = collectD.Seconds()
	mx["metrics.samples"] = float64(samples)

	mx["runtime.gc_cycles"] = float64(m.gcCycles)
	mx["runtime.gc_pause_ms"] = float64(m.gcPauseNs) / 1e6
	mx["runtime.bytes_per_event"] = float64(m.allocB) / float64(total.events)
	mx["runtime.allocs_per_kevent"] = float64(m.mallocs) / float64(total.events) * 1000

	mx["model.sim_ms"] = total.simTime.Seconds() * 1000
	mx["model.digest"] = float64(binary.BigEndian.Uint64(digest.Sum(nil)[:8]) >> 16) // leading 48 bits: exact in a float64

	if traced {
		pprof.StopCPUProfile()
		if err := finishTrace(res, tr, m, ccByVariant, prof.Bytes(), outDir); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// counters are the exact engine and network counts of a rep: sums over
// its variants (and over the shards of a sharded run), maxima for the
// peaks.
type counters struct {
	events, scheduled, cancelled, slotAllocs uint64
	peakPending                              int
	simTime                                  sim.Time // simulated time covered, summed over the variants
	shardSteps                               []uint64 // sharded only: events per shard
	net                                      net.NetworkStats
}

// add folds one finished variant in and returns that variant's own counts.
func (c *counters) add(nw *net.Network) (v counters) {
	var end sim.Time
	for i, eng := range nw.ShardEngines() {
		es := eng.Stats()
		v.events += es.Steps
		v.scheduled += es.Scheduled
		v.cancelled += es.Cancelled
		v.slotAllocs += es.EventAllocs
		if es.PeakPending > v.peakPending {
			v.peakPending = es.PeakPending
		}
		if eng.Now() > end {
			end = eng.Now()
		}
		if nw.Shards() > 1 {
			if len(c.shardSteps) <= i {
				c.shardSteps = append(c.shardSteps, 0)
			}
			c.shardSteps[i] += es.Steps
		}
	}
	v.net = nw.Stats()

	c.events += v.events
	c.scheduled += v.scheduled
	c.cancelled += v.cancelled
	c.slotAllocs += v.slotAllocs
	c.simTime += end
	if v.peakPending > c.peakPending {
		c.peakPending = v.peakPending
	}
	st, sum := v.net, &c.net
	sum.DataDelivered += st.DataDelivered
	sum.AcksSent += st.AcksSent
	sum.PoolGets += st.PoolGets
	sum.PoolAllocs += st.PoolAllocs
	sum.QueueShrinks += st.QueueShrinks
	sum.DataDrops += st.DataDrops
	sum.AckDrops += st.AckDrops
	sum.Retransmits += st.Retransmits
	sum.RTOFires += st.RTOFires
	sum.PFCPauses += st.PFCPauses
	if st.QueueCapPeak > sum.QueueCapPeak {
		sum.QueueCapPeak = st.QueueCapPeak
	}
	if st.MaxQueuePeak > sum.MaxQueuePeak {
		sum.MaxQueuePeak = st.MaxQueuePeak
	}
	return v
}

// report writes the counts as sim.* and net.* metrics.
func (c *counters) report(mx map[string]float64) {
	pkts := float64(c.net.DataDelivered)
	mx["sim.events"] = float64(c.events)
	mx["sim.events_scheduled"] = float64(c.scheduled)
	mx["sim.events_cancelled"] = float64(c.cancelled)
	mx["sim.peak_pending"] = float64(c.peakPending)
	mx["sim.slot_allocs"] = float64(c.slotAllocs)
	mx["sim.events_per_pkt"] = float64(c.events) / pkts
	if len(c.shardSteps) > 0 {
		var sum, max uint64
		for _, s := range c.shardSteps {
			sum += s
			if s > max {
				max = s
			}
		}
		mx["sim.parallel.shard_imbalance"] = float64(max) * float64(len(c.shardSteps)) / float64(sum)
	}
	mx["net.data_pkts"] = pkts
	mx["net.acks"] = float64(c.net.AcksSent)
	mx["net.pool_gets"] = float64(c.net.PoolGets)
	mx["net.pool_allocs"] = float64(c.net.PoolAllocs)
	mx["net.queue_cap_peak"] = float64(c.net.QueueCapPeak)
	mx["net.queue_shrinks"] = float64(c.net.QueueShrinks)
	mx["net.max_queue_kb"] = float64(c.net.MaxQueuePeak) / 1000
	mx["net.drops"] = float64(c.net.Drops())
	mx["net.retransmits"] = float64(c.net.Retransmits)
	mx["net.rto_fires"] = float64(c.net.RTOFires)
	mx["net.pfc_pauses"] = float64(c.net.PFCPauses)
}

// finishTrace derives the traced-only metrics - the cc.on_ack estimate,
// the batch timings, the CPU shares - and writes the trace and the
// profile it came from to outDir.
func finishTrace(res *repResult, tr *tracer, m *meter, ccByVariant map[string]*ccTrace, prof []byte, outDir string) error {
	mx := res.Metrics
	clockNs := clockOverheadNs()
	all := &ccTrace{}
	for _, c := range ccByVariant {
		all.add(c)
	}
	ccNs := all.estTotalNs(clockNs)
	mx["cc.on_ack_calls"] = float64(all.Calls)
	if all.Calls > 0 {
		mx["cc.on_ack_ns"] = ccNs / float64(all.Calls)
	}
	// sim.run's self time is its duration minus this estimate; on a
	// sharded run the OnAck calls of both shards overlap in wall time, so
	// the share is of CPU time there.
	runNs := float64(m.wall.Nanoseconds())
	if m.cpu > 0 {
		runNs = float64(m.cpu.Nanoseconds())
	}
	mx["cc.share_of_run"] = 100 * ccNs / runNs

	if len(m.batchNs) > 0 {
		mx["sim.batch_ns_per_event_p50"] = percentile(m.batchNs, 50)
		mx["sim.batch_ns_per_event_p99"] = percentile(m.batchNs, 99)
		mx["sim.pending_mean"] = m.pendingSum / float64(m.batches)
	}

	samples, err := parseProfile(prof)
	if err != nil {
		return err
	}
	shares := cpuShares(samples)
	for b, v := range shares {
		mx[shareMetric(b)] = v
	}

	name := filepath.Join(outDir, "trace-"+res.Workload+".json")
	err = writeJSON(name, traceFile{
		Run:      fmt.Sprintf("%s-seed%d-%d", res.Workload, res.Seed, tr.t0.UnixNano()),
		Workload: res.Workload,
		Seed:     res.Seed,
		Spans:    tr.spans,
		CCOnAck:  ccByVariant,
		Shares:   shares,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "cpu-"+res.Workload+".pprof"), prof, 0o644)
}

// shareMetric is the metric name of a CPU-share bucket: the runtime
// buckets follow the runtime.* naming, the rest are <layer>.cpu_share.
func shareMetric(bucket string) string {
	switch bucket {
	case "runtime.gc", "runtime.mem", "runtime.other":
		return bucket + "_cpu_share"
	}
	return bucket + ".cpu_share"
}
