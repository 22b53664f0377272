package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"graphtrek"
	"graphtrek/internal/gen"
)

// ingest-churn is the write path: three graphtrek-server processes with
// replication factor 2 start on empty data directories; the client
// subscribes to every partition's change feed from cursor 0, interns the
// metadata graph's names and loads it with BulkLoad. Then one open-loop
// writer sends name-addressed Mutate batches at a fixed rate — new
// executions of already loaded jobs, with the files they write — while one
// closed-loop reader traverses the jobs being written. Interning, quorum
// rounds, replica apply, the kv WAL, memtable flushes and compaction,
// write-through cache invalidation and feed delivery all run; the reader
// shares the stores, so a write-side gain that slows reads shows.
const (
	ingestServers  = 3
	ingestReplicas = 2
	ingestVertices = 16000
	ingestPerBatch = 2 // executions per Mutate batch, each writing one file
	// ingestRate is the writer's fixed rate in batches per second, about
	// half of what one closed-loop writer sustains on a 2-CPU host.
	ingestRate = 10
	// ingestGraphSeed fixes the loaded graph; --seed orders the jobs and
	// draws the writes.
	ingestGraphSeed = 1
)

// write is one Mutate batch of the open-loop writer.
type write struct {
	job     graphtrek.VertexID
	names   []string // execution and file names, interleaved
	muts    []graphtrek.NamedMutation
	due     time.Time
	invoked time.Time
	acked   time.Time
	err     error
	ids     map[string]graphtrek.VertexID
}

// read is one traversal of the closed-loop reader.
type read struct {
	job       graphtrek.VertexID
	submitted time.Time
	returned  time.Time
	res       []graphtrek.VertexID
}

// feedLog records what the change feeds delivered.
type feedLog struct {
	mu      sync.Mutex
	seqs    map[int][]uint64     // per partition, in delivery order
	arrived map[mutKey]time.Time // first delivery of each data mutation
	count   map[mutKey]int       // deliveries of each data mutation
	wg      sync.WaitGroup
	feeds   []*graphtrek.Feed
}

// mutKey identifies a data mutation: a vertex put or an edge put.
type mutKey struct {
	edge     bool
	src, dst graphtrek.VertexID
	label    string
}

func keyOf(m graphtrek.Mutation) (mutKey, bool) {
	switch m.Op {
	case graphtrek.OpPutVertex:
		return mutKey{src: m.Vertex.ID}, true
	case graphtrek.OpPutEdge:
		return mutKey{edge: true, src: m.Edge.Src, dst: m.Edge.Dst, label: m.Edge.Label}, true
	}
	return mutKey{}, false
}

// subscribe opens every partition's feed from the start of its history.
func subscribe(wc *wireClient, parts int) (*feedLog, error) {
	fl := &feedLog{seqs: make(map[int][]uint64), arrived: make(map[mutKey]time.Time), count: make(map[mutKey]int)}
	for p := 0; p < parts; p++ {
		f, err := wc.SubscribeFeed(p, graphtrek.FeedOptions{})
		if err != nil {
			fl.close()
			return nil, fmt.Errorf("subscribe partition %d: %w", p, err)
		}
		fl.feeds = append(fl.feeds, f)
		fl.wg.Add(1)
		go func(p int) {
			defer fl.wg.Done()
			for ev := range f.Events() {
				now := time.Now()
				fl.mu.Lock()
				fl.seqs[p] = append(fl.seqs[p], ev.Seq)
				for _, m := range ev.Muts {
					if k, ok := keyOf(m); ok {
						if fl.count[k] == 0 {
							fl.arrived[k] = now
						}
						fl.count[k]++
					}
				}
				fl.mu.Unlock()
			}
		}(p)
	}
	return fl, nil
}

func (fl *feedLog) close() {
	for _, f := range fl.feeds {
		f.Close()
	}
	fl.wg.Wait()
}

// await waits until every key has been delivered or the timeout passes.
func (fl *feedLog) await(keys []mutKey, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		fl.mu.Lock()
		missing := 0
		for _, k := range keys {
			if fl.count[k] == 0 {
				missing++
			}
		}
		fl.mu.Unlock()
		if missing == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// checkFeed checks that each partition's feed ran gap-free from sequence
// 1 and that every key in want was delivered exactly once; it returns the
// problems found.
func checkFeed(seqs map[int][]uint64, count map[mutKey]int, parts int, want []mutKey) []string {
	var problems []string
	for p := 0; p < parts; p++ {
		for i, s := range seqs[p] {
			if s != uint64(i+1) {
				problems = append(problems, fmt.Sprintf("partition %d feed: record %d has sequence %d, want %d", p, i, s, i+1))
				break
			}
		}
	}
	bad := 0
	for _, k := range want {
		if n := count[k]; n != 1 {
			if bad < 5 {
				problems = append(problems, fmt.Sprintf("mutation %+v delivered %d times, want once", k, n))
			}
			bad++
		}
	}
	if bad > 5 {
		problems = append(problems, fmt.Sprintf("%d mutations in all not delivered exactly once", bad))
	}
	return problems
}

// ingestGraph is the generated graph with external names.
type ingestGraph struct {
	vertices []graphtrek.Vertex
	edges    []graphtrek.Edge
	stats    gen.MetaStats
}

func nameOf(v graphtrek.Vertex) string { return v.Label + "-" + strconv.FormatUint(uint64(v.ID), 10) }

// load interns the graph's names and bulk-loads it with the interned ids,
// returning the mapping and the loaded mutations.
func (g *ingestGraph) load(wc *wireClient) (map[graphtrek.VertexID]graphtrek.VertexID, []graphtrek.Mutation, time.Duration, error) {
	names := make([]string, len(g.vertices))
	for i, v := range g.vertices {
		names[i] = nameOf(v)
	}
	ids, err := wc.Intern(names, graphtrek.WriteOptions{Timeout: travelTimeout})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("intern: %w", err)
	}
	idOf := make(map[graphtrek.VertexID]graphtrek.VertexID, len(ids))
	muts := make([]graphtrek.Mutation, 0, len(g.vertices)+len(g.edges))
	for i, v := range g.vertices {
		idOf[v.ID] = ids[i]
		v.ID = ids[i]
		muts = append(muts, graphtrek.Mutation{Op: graphtrek.OpPutVertex, Vertex: v})
	}
	for _, e := range g.edges {
		e.Src, e.Dst = idOf[e.Src], idOf[e.Dst]
		muts = append(muts, graphtrek.Mutation{Op: graphtrek.OpPutEdge, Edge: e})
	}
	t0 := time.Now()
	if err := wc.BulkLoad(muts, graphtrek.BulkOptions{Write: graphtrek.WriteOptions{Timeout: travelTimeout}}); err != nil {
		return nil, nil, 0, fmt.Errorf("bulk load: %w", err)
	}
	return idOf, muts, time.Since(t0), nil
}

func jobFiles(job graphtrek.VertexID) querySpec {
	return querySpec{Name: "job-files", Seeds: []graphtrek.VertexID{job},
		Hops: []hop{{Edge: "hasExecutions"}, {Edge: "write"}}}
}

func runIngest(b *bench) error {
	g := &ingestGraph{}
	var err error
	g.stats, err = gen.Metadata(gen.ScaledMeta(ingestVertices, ingestGraphSeed), gen.Funcs{
		Vertex: func(v graphtrek.Vertex) error { g.vertices = append(g.vertices, v); return nil },
		Edge:   func(e graphtrek.Edge) error { g.edges = append(g.edges, e); return nil },
	})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.seed))
	fmt.Printf("# ingest-churn: %s, %d servers, replicas %d, writer %d batches/s of %d executions\n",
		g.stats, ingestServers, ingestReplicas, ingestRate, ingestPerBatch)

	var (
		d       *deployment
		wc      *wireClient
		fl      *feedLog
		idOf    map[graphtrek.VertexID]graphtrek.VertexID
		loaded  []graphtrek.Mutation
		setups  []float64
		bulkDur []float64
	)
	cleanup := func() {
		if fl != nil {
			fl.close()
		}
		if wc != nil {
			wc.Close()
		}
		if d != nil {
			d.stop()
		}
	}
	defer cleanup()
	for i := 0; i < setupRounds; i++ {
		cleanup()
		t0 := time.Now()
		root := filepath.Join(b.work, fmt.Sprintf("ingest-%d", i))
		data := make([]string, ingestServers)
		for s := range data {
			data[s] = filepath.Join(root, fmt.Sprintf("server-%02d", s))
		}
		if d, err = b.deploy(data, ingestReplicas, 1); err != nil {
			return err
		}
		if wc, err = d.dial(ingestServers); err != nil {
			return err
		}
		if fl, err = subscribe(wc, ingestServers); err != nil {
			return err
		}
		var bulk time.Duration
		if idOf, loaded, bulk, err = g.load(wc); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		bulkDur = append(bulkDur, bulk.Seconds())
	}
	root := filepath.Join(b.work, fmt.Sprintf("ingest-%d", setupRounds-1))

	// The model of the loaded graph, in interned ids.
	base := newModel()
	for _, m := range loaded {
		if m.Op == graphtrek.OpPutVertex {
			base.AddVertex(m.Vertex)
		} else {
			base.AddEdge(m.Edge)
		}
	}
	// Every job is written and read, in a seeded order: which of a job's
	// records a memtable flush moved to an SSTable varies from run to
	// run, and cycling over all jobs averages that out.
	perm := rng.Perm(g.stats.Jobs)
	jobs := make([]graphtrek.VertexID, len(perm))
	baseFiles := make(map[graphtrek.VertexID][]graphtrek.VertexID)
	for i := range jobs {
		jobs[i] = idOf[g.stats.FirstJob+graphtrek.VertexID(perm[i])]
		baseFiles[jobs[i]] = base.eval(jobFiles(jobs[i]))
	}
	nameByID := make(map[graphtrek.VertexID]string)
	for _, v := range g.vertices {
		nameByID[idOf[v.ID]] = nameOf(v)
	}

	batches := int(b.window.Seconds() * ingestRate)
	writes := make([]*write, batches)
	for i := range writes {
		w := &write{job: jobs[rng.Intn(len(jobs))]}
		for k := 0; k < ingestPerBatch; k++ {
			exec := fmt.Sprintf("x-%d-%d-%d", b.seed, i, k)
			file := fmt.Sprintf("w-%d-%d-%d", b.seed, i, k)
			w.names = append(w.names, exec, file)
			w.muts = append(w.muts,
				graphtrek.NamedMutation{Op: graphtrek.NamedAddVertex, Name: exec, Label: "Execution",
					Props: graphtrek.Props{"model": graphtrek.String([]string{"A", "B", "C", "D"}[rng.Intn(4)])}},
				graphtrek.NamedMutation{Op: graphtrek.NamedAddEdge, Src: nameByID[w.job], Dst: exec, Label: "hasExecutions"},
				graphtrek.NamedMutation{Op: graphtrek.NamedAddVertex, Name: file, Label: "File",
					Props: graphtrek.Props{"name": graphtrek.String(file), "size": graphtrek.Int(rng.Int63n(1 << 30))}},
				graphtrek.NamedMutation{Op: graphtrek.NamedAddEdge, Src: exec, Dst: file, Label: "write",
					Props: graphtrek.Props{"ts": graphtrek.Int(rng.Int63n(1 << 20))}},
			)
		}
		writes[i] = w
	}

	var blocks *blockMeter
	if b.trace {
		blocks, err = startBlocks(func() (sample, time.Duration, error) {
			s, err := d.scrape()
			_, cpu := d.sampleProcs()
			return s, cpu, err
		})
		if err != nil {
			return err
		}
	}
	var (
		reads   []read
		lagPeak float64
	)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		// The open-loop writer: batch i is due at start + i/rate whatever
		// the previous batch's fate, and is timed from when it was due.
		defer wg.Done()
		for i, w := range writes {
			w.due = start.Add(time.Duration(i) * time.Second / ingestRate)
			time.Sleep(time.Until(w.due))
			w.invoked = time.Now()
			w.ids, w.err = wc.Mutate(w.muts, graphtrek.WriteOptions{Timeout: travelTimeout})
			w.acked = time.Now()
			b.count(w.err != nil)
			if w.err != nil {
				fmt.Printf("# write batch %d failed: %v\n", i, w.err)
			}
			if blocks != nil {
				blocks.op(w.due)
			}
		}
	}()
	go func() {
		// The closed-loop reader over the jobs being written.
		defer wg.Done()
		for i := 0; time.Since(start) < b.window; i++ {
			job := jobs[i%len(jobs)]
			r := read{job: job, submitted: time.Now()}
			h, err := wc.submit(jobFiles(job))
			if err == nil {
				r.res, err = h.Wait(travelTimeout)
			}
			r.returned = time.Now()
			dur := r.returned.Sub(r.submitted)
			b.count(err != nil)
			if err != nil {
				fmt.Printf("# read of job %d failed: %v\n", job, err)
				continue
			}
			reads = append(reads, r)
			if blocks != nil {
				var tt *travelTrace
				if blocks.tracedAt(r.submitted) {
					dag, err := h.FetchDAG(5 * time.Second)
					if err != nil {
						b.check(false, "fetch trace DAG: %v", err)
					} else {
						t := dagTrace(dur, dag)
						tt = &t
					}
				}
				blocks.travel(r.submitted, dur, len(r.res), tt)
			}
		}
	}()
	if b.trace {
		// Sample the replication lag gauge while the load runs.
		for time.Since(start) < b.window {
			if s, err := d.scrape(); err == nil && s.c["repl_lag_bytes"] > lagPeak {
				lagPeak = s.c["repl_lag_bytes"]
			}
			time.Sleep(250 * time.Millisecond)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	if blocks != nil {
		if err := blocks.stop(); err != nil {
			return err
		}
	}
	b.noteDeath(d)

	// Ids of every written name; a failed batch's names resolve read-only.
	for _, w := range writes {
		if w.err == nil {
			continue
		}
		ids, err := wc.ResolveNames(w.names, graphtrek.WriteOptions{Timeout: travelTimeout})
		if err != nil {
			return fmt.Errorf("resolve names of a failed batch: %w", err)
		}
		w.ids = make(map[string]graphtrek.VertexID)
		for i, n := range w.names {
			if ids[i] != 0 {
				w.ids[n] = ids[i]
			}
		}
	}
	fileID := func(w *write, k int) (graphtrek.VertexID, bool) {
		id, ok := w.ids[w.names[2*k+1]]
		return id, ok
	}

	// Reads during the run: each holds every write acknowledged before it
	// was submitted, and nothing beyond the loaded graph and the writes
	// invoked before it returned.
	for _, r := range reads {
		lo := append([]graphtrek.VertexID(nil), baseFiles[r.job]...)
		hi := append([]graphtrek.VertexID(nil), baseFiles[r.job]...)
		for _, w := range writes {
			if w.job != r.job || w.invoked.IsZero() || !w.invoked.Before(r.returned) {
				continue
			}
			for k := 0; k < ingestPerBatch; k++ {
				id, ok := fileID(w, k)
				if !ok {
					continue
				}
				hi = append(hi, id)
				if w.err == nil && w.acked.Before(r.submitted) {
					lo = append(lo, id)
				}
			}
		}
		sortIDs(lo)
		sortIDs(hi)
		if diff := boundIDs(r.res, lo, hi); diff != "" {
			b.check(false, "read of job %d at +%v: %s", r.job, r.submitted.Sub(start), diff)
		}
	}

	// The model of every acknowledged write, and the final traversals.
	final := base
	var wantKeys []mutKey
	for _, m := range loaded {
		k, _ := keyOf(m)
		wantKeys = append(wantKeys, k)
	}
	var acked []*write
	for _, w := range writes {
		if w.err != nil {
			continue
		}
		acked = append(acked, w)
		for k := 0; k < ingestPerBatch; k++ {
			exec, file := w.ids[w.names[2*k]], w.ids[w.names[2*k+1]]
			em, hm, fm, wm := w.muts[4*k], w.muts[4*k+1], w.muts[4*k+2], w.muts[4*k+3]
			for _, mm := range []graphtrek.Mutation{
				{Op: graphtrek.OpPutVertex, Vertex: graphtrek.Vertex{ID: exec, Label: em.Label, Props: em.Props}},
				{Op: graphtrek.OpPutEdge, Edge: graphtrek.Edge{Src: w.job, Dst: exec, Label: hm.Label}},
				{Op: graphtrek.OpPutVertex, Vertex: graphtrek.Vertex{ID: file, Label: fm.Label, Props: fm.Props}},
				{Op: graphtrek.OpPutEdge, Edge: graphtrek.Edge{Src: exec, Dst: file, Label: wm.Label, Props: wm.Props}},
			} {
				if mm.Op == graphtrek.OpPutVertex {
					final.AddVertex(mm.Vertex)
				} else {
					final.AddEdge(mm.Edge)
				}
				k, _ := keyOf(mm)
				wantKeys = append(wantKeys, k)
			}
		}
	}
	for _, job := range jobs {
		h, err := wc.submit(jobFiles(job))
		var res []graphtrek.VertexID
		if err == nil {
			res, err = h.Wait(travelTimeout)
		}
		if !b.check(err == nil, "final read of job %d: %v", job, err) {
			continue
		}
		if diff := diffIDs(res, final.eval(jobFiles(job))); diff != "" {
			b.check(false, "final read of job %d: %s", job, diff)
		}
	}

	// The feeds: gap-free from sequence 1, every acknowledged mutation
	// exactly once.
	fl.await(wantKeys, 10*time.Second)
	fl.mu.Lock()
	for _, p := range checkFeed(fl.seqs, fl.count, ingestServers, wantKeys) {
		b.check(false, "%s", p)
	}
	var mutLat, mutService, delivery, deliveryService []float64
	for _, w := range acked {
		mutLat = append(mutLat, ms(w.acked.Sub(w.due)))
		mutService = append(mutService, ms(w.acked.Sub(w.invoked)))
		var last time.Time
		complete := true
		for k := 0; k < ingestPerBatch; k++ {
			exec, file := w.ids[w.names[2*k]], w.ids[w.names[2*k+1]]
			for _, key := range []mutKey{{src: exec}, {src: file}, {edge: true, src: w.job, dst: exec, label: "hasExecutions"}, {edge: true, src: exec, dst: file, label: "write"}} {
				t, ok := fl.arrived[key]
				complete = complete && ok
				if t.After(last) {
					last = t
				}
			}
		}
		if complete {
			delivery = append(delivery, ms(last.Sub(w.due)))
			deliveryService = append(deliveryService, ms(last.Sub(w.invoked)))
		}
	}
	fl.mu.Unlock()
	bytes, ssts := dirStats(root)
	fl.close()
	fl = nil
	wc.Close()
	d.stop()

	var lat []float64
	for _, r := range reads {
		lat = append(lat, ms(r.returned.Sub(r.submitted)))
	}
	var late time.Duration
	for _, w := range writes {
		if l := w.invoked.Sub(w.due); l > late {
			late = l
		}
	}
	b.setE2E("setup_s", "s", median(setups))
	b.setE2E("travel_p50_ms", "ms", median(lat))
	b.setE2E("travels_per_s", "1/s", float64(len(lat))/elapsed.Seconds())
	b.setE2E("rss_peak_mb", "MB", d.rssMB)
	b.note("%d reads and %d write batches (%d acknowledged) in %.1fs; writer ran at most %.1fms late; travel_p90_ms %.3f",
		len(reads), len(writes), len(acked), elapsed.Seconds(), ms(late), quantile(lat, 0.9))
	b.note("bulkload_muts_per_s %.1f (%d mutations, median of %d loads)", float64(len(loaded))/median(bulkDur), len(loaded), len(bulkDur))
	b.note("mutate_p50_ms %.3f mutate_p90_ms %.3f (from due time, %d batches); service p50 %.3f ms (from invocation)",
		median(mutLat), quantile(mutLat, 0.9), len(mutLat), median(mutService))
	b.note("feed_delivery_p50_ms %.3f feed_delivery_p90_ms %.3f (from due time, %d batches)", median(delivery), quantile(delivery, 0.9), len(delivery))
	if blocks != nil {
		in := blocks.inputs()
		quorum := in.delta.h["quorum_write_seconds"].quantile(0.5)
		feedLag := in.delta.h["feed_lag_seconds"].quantile(0.5)
		b.note("repl.quorum_write_p50_us %.1f repl.quorum_write_p90_us %.1f feed.lag_p50_us %.1f",
			quorum/1e3, in.delta.h["quorum_write_seconds"].quantile(0.9)/1e3, feedLag/1e3)
		in.mutations, in.diskBytes, in.sstables, in.lagPeak = len(wantKeys), bytes, ssts, lagPeak
		in.quorumShare = ratio(quorum/1e6, median(mutService))
		in.feedShare = ratio(feedLag/1e6, median(deliveryService))
		b.setLayers(in)
	}
	return nil
}

func sortIDs(ids []graphtrek.VertexID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
