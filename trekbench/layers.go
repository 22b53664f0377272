package main

import (
	"runtime"
	"sort"
	"time"

	"graphtrek"
	"graphtrek/internal/metrics"
)

// hist is a cumulative latency histogram: count of samples <= bound
// (nanoseconds), with bound -1 standing for +Inf.
type hist map[float64]float64

// quantile interpolates the q-quantile in nanoseconds within the bucket
// that holds it, the way Prometheus' histogram_quantile does.
func (h hist) quantile(q float64) float64 {
	bounds := make([]float64, 0, len(h))
	var total float64
	for b, c := range h {
		if b < 0 {
			total = c
			continue
		}
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if total == 0 && len(bounds) > 0 {
		total = h[bounds[len(bounds)-1]]
	}
	if total == 0 {
		return 0
	}
	rank := q * total
	prevB, prevC := 0.0, 0.0
	for _, b := range bounds {
		c := h[b]
		if c >= rank {
			if c == prevC {
				return b
			}
			return prevB + (b-prevB)*(rank-prevC)/(c-prevC)
		}
		prevB, prevC = b, c
	}
	return prevB
}

// sample is one reading of the cluster's counters and histograms, summed
// over servers. Counter names follow the /metrics exposition without its
// graphtrek_ prefix.
type sample struct {
	c map[string]float64
	h map[string]hist
}

func newSample() sample {
	return sample{c: make(map[string]float64), h: make(map[string]hist)}
}

func (s sample) addBucket(name string, bound, count float64) {
	if s.h[name] == nil {
		s.h[name] = make(hist)
	}
	s.h[name][bound] += count
}

// gauges keep their later value in a difference.
var gauges = map[string]bool{
	"queue_depth_peak": true, "repl_lag_bytes": true,
	"heap_alloc_bytes": true, "gc_pause_p95_ns": true,
}

// sub returns the activity between an earlier sample and s.
func (s sample) sub(earlier sample) sample {
	out := newSample()
	for k, v := range s.c {
		if gauges[k] {
			out.c[k] = v
		} else {
			out.c[k] = v - earlier.c[k]
		}
	}
	for name, h := range s.h {
		for b, c := range h {
			out.addBucket(name, b, c-earlier.h[name][b])
		}
	}
	return out
}

// add folds a later interval's activity into s; gauges keep the larger
// value.
func (s sample) add(d sample) {
	for k, v := range d.c {
		if !gauges[k] {
			s.c[k] += v
		} else if v > s.c[k] {
			s.c[k] = v
		}
	}
	for name, h := range d.h {
		for b, c := range h {
			s.addBucket(name, b, c)
		}
	}
}

// clusterSample reads an in-process cluster's counters and histograms,
// plus the process's own GC activity (the cluster shares its runtime).
func clusterSample(c *graphtrek.Cluster) sample {
	s := newSample()
	for _, m := range c.ServerMetrics() {
		for k, v := range map[string]int64{
			"received_total": m.Received, "redundant_total": m.Redundant,
			"combined_total": m.Combined, "real_io_total": m.RealIO,
			"msgs_sent_total": m.MsgsSent, "execs_total": m.Execs,
			"msgs_failed_total": m.MsgsFailed, "reconnects_total": m.Reconnects,
			"queue_wait_ns_total": m.QueueWaitNs, "queue_groups_total": m.QueueGroups,
			"seed_scanned_total": m.SeedScanned, "seed_index_hits_total": m.SeedIndexHits,
			"vtx_cache_hits_total": m.VtxCacheHits, "vtx_cache_misses_total": m.VtxCacheMisses,
			"adj_cache_hits_total": m.AdjCacheHits, "adj_cache_misses_total": m.AdjCacheMisses,
			"epoch_rejects_total": m.EpochRejects, "repl_lag_bytes": m.ReplLagBytes,
			"feed_records_total": m.FeedRecords,
		} {
			s.c[k] += float64(v)
		}
		if float64(m.QueueDepthPeak) > s.c["queue_depth_peak"] {
			s.c["queue_depth_peak"] = float64(m.QueueDepthPeak)
		}
	}
	for i := 0; i < c.Servers(); i++ {
		for _, h := range c.Server(i).Histograms() {
			var cum uint64
			for b, n := range h.Hist.Counts {
				cum += n
				s.addBucket(h.Name, float64(metrics.BucketUpper(b)), float64(cum))
			}
			s.addBucket(h.Name, -1, float64(h.Hist.Count))
		}
	}
	var disk int64
	for _, a := range c.DiskAccesses() {
		disk += a
	}
	s.c["disk_accesses_total"] = float64(disk)
	var rt runtime.MemStats
	runtime.ReadMemStats(&rt)
	s.c["gc_cycles_total"] = float64(rt.NumGC)
	s.c["gc_pause_ns_total"] = float64(rt.PauseTotalNs)
	return s
}

// travelTrace is what one traced traversal contributes to the per-layer
// figures: its client latency and its critical path's parts.
type travelTrace struct {
	client      time.Duration
	coordinator time.Duration // ledger creation to retirement at the coordinator
	critical    time.Duration // critical path: root start to leaf end
	queue       time.Duration
	compute     time.Duration
	gap         time.Duration
	fetch       time.Duration
	filter      time.Duration
	scan        time.Duration
	dispatch    time.Duration
	complete    bool
}

// dagTrace reduces a fetched causal DAG to its critical-path parts. The
// phases come from the spans of the executions on that path.
func dagTrace(client time.Duration, d *traceDAG) travelTrace {
	t := travelTrace{client: client, complete: d.Complete()}
	if d.Summary != nil {
		t.coordinator = time.Duration(d.Summary.ElapsedNs)
	}
	cp := d.CriticalPath
	if cp == nil {
		return t
	}
	t.critical = time.Duration(cp.DurationNs)
	onPath := make(map[uint64]bool, len(cp.Hops))
	for _, h := range cp.Hops {
		t.queue += time.Duration(h.QueueNs)
		t.compute += time.Duration(h.ComputeNs)
		t.gap += time.Duration(h.GapNs)
		onPath[h.Exec] = true
	}
	for _, n := range d.Nodes {
		if onPath[n.Exec] {
			t.fetch += time.Duration(n.FetchNs)
			t.filter += time.Duration(n.FilterNs)
			t.scan += time.Duration(n.ScanNs)
			t.dispatch += time.Duration(n.DispatchNs)
		}
	}
	return t
}

// layerInputs is everything the per-layer figures are computed from. The
// counter, histogram and runtime inputs cover the untraced blocks of the
// window (see traceBlock); traced holds the traversals of the traced ones.
type layerInputs struct {
	delta       sample // counter activity
	travels     int
	results     int // vertices returned by those travels
	ops         int // timed operations of every kind (travels, write batches)
	window      time.Duration
	serverCPU   time.Duration
	traced      []travelTrace
	overhead    float64 // traced blocks' median travel latency over untraced ones'
	throughput  float64 // traced blocks' travels per second over untraced ones'
	mutations   int     // mutations written to the data directories
	diskBytes   int64   // size of the data directories at the end
	sstables    int
	lagPeak     float64 // largest replication lag seen while sampling
	quorumShare float64 // quorum-write p50 over the client's write p50
	feedShare   float64 // server feed-lag p50 over client delivery p50
}

// setLayers reports every per-layer metric from the inputs.
func (b *bench) setLayers(in layerInputs) {
	c := in.delta.c
	tr := float64(in.travels)
	ops := float64(in.ops)
	received := c["received_total"]
	b.setLayer("core.received_per_travel", "count", ratio(received, tr))
	b.setLayer("core.execs_per_travel", "count", ratio(c["execs_total"], tr))
	b.setLayer("core.msgs_per_travel", "count", ratio(c["msgs_sent_total"], tr))
	b.setLayer("core.entries_per_msg", "count", ratio(received, c["msgs_sent_total"]))
	b.setLayer("core.results_per_received", "ratio", ratio(float64(in.results), received))
	b.setLayer("core.coord_travel_p50_ms", "ms", in.delta.h["travel_latency_seconds"].quantile(0.5)/1e6)
	b.setLayer("cache.redundant_per_travel", "count", ratio(c["redundant_total"], tr))
	b.setLayer("cache.redundant_ratio", "ratio", ratio(c["redundant_total"], received))
	b.setLayer("sched.queue_wait_mean_us", "us", ratio(c["queue_wait_ns_total"], c["queue_groups_total"])/1e3)
	b.setLayer("sched.merge_ratio", "ratio", ratio(c["combined_total"], received))
	b.setLayer("sched.queue_depth_peak", "count", c["queue_depth_peak"])
	b.setLayer("sched.step_compute_p50_us", "us", in.delta.h["step_compute_seconds"].quantile(0.5)/1e3)
	accesses := c["disk_accesses_total"]
	if accesses == 0 {
		// Deployed servers do not export the simulated disk's counter; the
		// engine charges it once per real I/O.
		accesses = c["real_io_total"]
	}
	b.setLayer("simio.accesses_per_travel", "count", ratio(accesses, tr))
	b.setLayer("simio.real_io_per_travel", "count", ratio(c["real_io_total"], tr))
	b.setLayer("gstore.vtx_cache_hit_ratio", "ratio", ratio(c["vtx_cache_hits_total"], c["vtx_cache_hits_total"]+c["vtx_cache_misses_total"]))
	b.setLayer("gstore.adj_cache_hit_ratio", "ratio", ratio(c["adj_cache_hits_total"], c["adj_cache_hits_total"]+c["adj_cache_misses_total"]))
	b.setLayer("gstore.seed_scanned_per_travel", "count", ratio(c["seed_scanned_total"], tr))
	b.setLayer("gstore.seed_index_hits_per_travel", "count", ratio(c["seed_index_hits_total"], tr))
	b.setLayer("kv.disk_bytes_per_mutation", "B", ratio(float64(in.diskBytes), float64(in.mutations)))
	b.setLayer("kv.sstable_files", "count", float64(in.sstables))
	b.setLayer("rpc.msgs_failed", "count", c["msgs_failed_total"])
	b.setLayer("rpc.reconnects", "count", c["reconnects_total"])
	b.setLayer("repl.quorum_share_p50", "ratio", in.quorumShare)
	b.setLayer("repl.lag_bytes_peak", "B", in.lagPeak)
	b.setLayer("repl.epoch_rejects", "count", c["epoch_rejects_total"])
	b.setLayer("feed.lag_share_p50", "ratio", in.feedShare)
	b.setLayer("feed.records_per_s", "1/s", ratio(c["feed_records_total"], in.window.Seconds()))
	b.setLayer("runtime.server_cpu_ms_per_op", "ms", ratio(ms(in.serverCPU), ops))
	b.setLayer("runtime.gc_cycles_per_op", "count", ratio(c["gc_cycles_total"], ops))
	b.setLayer("runtime.gc_pause_ms", "ms/s", ratio(c["gc_pause_ns_total"]/1e6, in.window.Seconds()))
	b.setLayer("trace.overhead_ratio", "ratio", in.overhead)
	b.setLayer("trace.throughput_ratio", "ratio", in.throughput)

	pick := func(f func(travelTrace) time.Duration) float64 {
		xs := make([]float64, 0, len(in.traced))
		for _, t := range in.traced {
			xs = append(xs, ms(f(t)))
		}
		return median(xs)
	}
	b.setLayer("core.outside_coord_ms", "ms", pick(func(t travelTrace) time.Duration { return t.client - t.coordinator }))
	b.setLayer("sched.critical_queue_ms", "ms", pick(func(t travelTrace) time.Duration { return t.queue }))
	b.setLayer("core.critical_compute_ms", "ms", pick(func(t travelTrace) time.Duration { return t.compute }))
	b.setLayer("gstore.critical_fetch_ms", "ms", pick(func(t travelTrace) time.Duration { return t.fetch }))
	b.setLayer("gstore.critical_scan_ms", "ms", pick(func(t travelTrace) time.Duration { return t.scan }))
	b.setLayer("query.critical_filter_ms", "ms", pick(func(t travelTrace) time.Duration { return t.filter }))
	b.setLayer("core.critical_dispatch_ms", "ms", pick(func(t travelTrace) time.Duration { return t.dispatch }))
	b.setLayer("rpc.critical_gap_ms", "ms", pick(func(t travelTrace) time.Duration { return t.gap }))
	b.setLayer("trace.client_remainder_ms", "ms", pick(func(t travelTrace) time.Duration {
		return t.client - t.queue - t.compute - t.gap
	}))
	b.accountLatency(in.traced)
}

// accountLatency checks that the median traced traversal's latency is
// accounted for: its critical-path parts (queue, compute, gap) plus the
// client-side remainder equal its client latency, and the parts agree with
// the critical path's own extent within accountTolerance of the latency.
func (b *bench) accountLatency(traced []travelTrace) {
	if len(traced) == 0 {
		b.check(false, "no traced traversals to account for")
		return
	}
	sorted := append([]travelTrace(nil), traced...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].client < sorted[j].client })
	t := sorted[len(sorted)/2]
	parts := t.queue + t.compute + t.gap
	remainder := t.client - parts
	slack := float64(t.critical-parts) / float64(t.client)
	if slack < 0 {
		slack = -slack
	}
	b.note("median traced traversal: client %.3fms = queue %.3f + compute %.3f + gap %.3f + client-side remainder %.3f (critical path %.3fms, parts off by %.1f%% of latency)",
		ms(t.client), ms(t.queue), ms(t.compute), ms(t.gap), ms(remainder), ms(t.critical), 100*slack)
	b.check(slack <= accountTolerance && remainder >= 0,
		"critical-path parts %.3fms vs path %.3fms (off by %.1f%% of latency %.3fms, tolerance %.0f%%), remainder %.3fms",
		ms(parts), ms(t.critical), 100*slack, ms(t.client), 100*accountTolerance, ms(remainder))
	incomplete := 0
	for _, tt := range traced {
		if !tt.complete {
			incomplete++
		}
	}
	b.check(incomplete == 0, "%d of %d traced DAGs failed the ledger cross-check", incomplete, len(traced))
}

// accountTolerance bounds how far the summed critical-path hops may
// differ from the path's own start-to-end extent, as a share of latency.
// Hops overlap when a child starts before its parent's span ends (an
// early batch flush), which makes the sum exceed the extent.
const accountTolerance = 0.10
