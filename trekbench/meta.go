package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"graphtrek"
	"graphtrek/internal/gen"
)

// meta-audit is the deployed read path: graphtrek-gen writes the metadata
// graph's partitions as SSTables, four graphtrek-server processes serve
// them over loopback TCP with the default replication, a property index on
// "name" and a read cache smaller than one partition, and a closed-loop
// submitter runs a seeded mix of the Table III audit, an indexed-seed
// provenance query with an intermediate rtn(), and a job fan-out with an
// IN filter. Redundant visits are rare here, so a change to the
// traversal-affiliate cache or the scheduler should show no loss.
const (
	metaServers  = 4
	metaReplicas = 2 // graphtrek-server's and graphtrek-gen's default
	metaVertices = 8000
	// metaCacheBytes is about a quarter of one server's partition data:
	// about 15% of vertex and 30% of adjacency reads miss and go to the
	// SSTables.
	metaCacheBytes = 384 << 10
	// metaGraphSeed fixes the generated graph, as the paper's evaluation
	// uses one Darshan graph; --seed varies the queries over it.
	metaGraphSeed = 1
	// metaSubmitters is one: the servers' garbage collection keeps the
	// two CPUs of the reference host busy with one submitter already, and
	// a second one raised throughput by a sixth while its runs moved
	// twice as far apart.
	metaSubmitters = 1
	// metaPassOrders is the number of seeded orders of the mix; the timed
	// passes cycle through them.
	metaPassOrders = 64
)

// metaGraph regenerates the metadata graph in the benchmark's memory from
// the same seed graphtrek-gen uses.
func metaGraph(vertices int, seed int64) (*model, gen.MetaStats, error) {
	m := newModel()
	stats, err := gen.Metadata(gen.ScaledMeta(vertices, seed), m)
	return m, stats, err
}

// metaQueries draws the query mix from the seed. Every mix has the same
// shape, so that mixes drawn from different seeds cost the same: the
// audits are each user under each half of the time range; the provenance
// files are one seeded pick from each of as many popularity strata (by
// reader count) as there are jobs; the fan-outs visit every job twice. It
// returns the queries with every audit followed by its block of two
// provenance queries and four fan-outs; metaPasses orders them.
func metaQueries(m *model, stats gen.MetaStats, seed int64) []querySpec {
	rng := rand.New(rand.NewSource(seed))
	var audits, provs, fans []querySpec
	for u := 0; u < stats.Users; u++ {
		for w := int64(0); w < 2; w++ {
			// Table III: files written by executions whose inputs were
			// written by the suspect user's jobs in a time window.
			lo := w << 19
			audits = append(audits, querySpec{
				Name:  "audit",
				Seeds: []graphtrek.VertexID{stats.UserID(u)},
				Hops: []hop{
					{Edge: "run", EdgeFilters: []pred{{"ts", "RANGE", []any{lo, lo + 1<<19 - 1}}}},
					{Edge: "hasExecutions"},
					{Edge: "write"},
					{Edge: "readBy"},
					{Edge: "write", Rtn: true},
				},
			})
		}
	}
	// Provenance: executions that read file f and wrote something, seeded
	// through the name index. Only files some execution read qualify.
	var readFiles []graphtrek.VertexID
	for i := 0; i < stats.Files; i++ {
		f := stats.FirstFile + graphtrek.VertexID(i)
		if len(m.out[f]["readBy"]) > 0 {
			readFiles = append(readFiles, f)
		}
	}
	readers := func(f graphtrek.VertexID) int { return len(m.out[f]["readBy"]) }
	sort.SliceStable(readFiles, func(i, j int) bool {
		return readers(readFiles[i]) < readers(readFiles[j])
	})
	for k := 0; k < stats.Jobs; k++ {
		// One file per popularity stratum; the seed picks among the files
		// with exactly as many readers as the stratum's middle file, so
		// every pick costs about the same.
		lo, hi := k*len(readFiles)/stats.Jobs, (k+1)*len(readFiles)/stats.Jobs
		r := readers(readFiles[(lo+hi)/2])
		var same []graphtrek.VertexID
		for _, f := range readFiles {
			if readers(f) == r {
				same = append(same, f)
			}
		}
		f := same[rng.Intn(len(same))]
		provs = append(provs, querySpec{
			Name:        "provenance",
			SeedFilters: []pred{{"name", "EQ", []any{m.vertices[f].Props["name"].Str()}}},
			Hops:        []hop{{Edge: "readBy", Rtn: true}, {Edge: "write"}},
		})
	}
	// Job fan-out: each job twice, with the two halves of a seeded split of
	// the four models.
	models := []any{"A", "B", "C", "D"}
	for j := 0; j < stats.Jobs; j++ {
		pick := rng.Perm(len(models))
		for half := 0; half < 2; half++ {
			fans = append(fans, querySpec{
				Name:  "fanout",
				Seeds: []graphtrek.VertexID{stats.FirstJob + graphtrek.VertexID(j)},
				Hops: []hop{{Edge: "hasExecutions", VertexFilters: []pred{
					{"model", "IN", []any{models[pick[2*half]], models[pick[2*half+1]]}},
				}}},
			})
		}
	}
	var qs []querySpec
	for i := range audits {
		qs = append(qs, audits[i], provs[2*i], provs[2*i+1])
		qs = append(qs, fans[4*i:4*i+4]...)
	}
	return qs
}

// metaBlock is the number of queries of each block of metaQueries' mix.
const metaBlock = 7

// metaPasses draws, from the seed, the order of each of n passes over the
// mix. A pass runs the mix in blocks of one audit, two provenance queries
// and four fan-outs, each kind shuffled across the blocks and each block
// shuffled within, so the heavy audits are spread evenly. Which queries
// follow which decides what the servers' read cache holds, and one fixed
// order moved throughput by a sixth from seed to seed; a fresh order for
// every pass averages that out within a run.
func metaPasses(mixLen int, seed int64, n int) [][]int {
	rng := rand.New(rand.NewSource(seed))
	blocks := mixLen / metaBlock
	passes := make([][]int, n)
	for p := range passes {
		// kinds[k] lists the indexes of kind k's queries in the mix.
		kinds := [][]int{make([]int, 0, blocks), make([]int, 0, 2*blocks), make([]int, 0, 4*blocks)}
		for i := 0; i < mixLen; i++ {
			switch off := i % metaBlock; {
			case off == 0:
				kinds[0] = append(kinds[0], i)
			case off < 3:
				kinds[1] = append(kinds[1], i)
			default:
				kinds[2] = append(kinds[2], i)
			}
		}
		for _, k := range kinds {
			rng.Shuffle(len(k), func(i, j int) { k[i], k[j] = k[j], k[i] })
		}
		order := make([]int, 0, mixLen)
		for b := 0; b < blocks; b++ {
			block := append([]int{kinds[0][b], kinds[1][2*b], kinds[1][2*b+1]}, kinds[2][4*b:4*b+4]...)
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			order = append(order, block...)
		}
		passes[p] = order
	}
	return passes
}

// seedMatches counts the step-0 candidates an index-seeded query should
// enumerate: the vertices matching its seed filters.
func (m *model) seedMatches(q querySpec) int {
	if len(q.Seeds) > 0 || len(q.SeedFilters) == 0 {
		return 0
	}
	n := 0
	for id := range m.vertices {
		if m.vertexOK(id, q.SeedFilters) {
			n++
		}
	}
	return n
}

func runMetaAudit(b *bench) error {
	m, stats, err := metaGraph(metaVertices, metaGraphSeed)
	if err != nil {
		return err
	}
	qs := metaQueries(m, stats, b.seed)
	passes := metaPasses(len(qs), b.seed, metaPassOrders)
	want := make([][]graphtrek.VertexID, len(qs))
	matches := make([]int, len(qs))
	for i, q := range qs {
		want[i] = m.eval(q)
		matches[i] = m.seedMatches(q)
	}
	fmt.Printf("# meta-audit: %s, %d servers, replicas %d, cache %d B, %d queries, %d submitters\n",
		stats, metaServers, metaReplicas, metaCacheBytes, len(qs), metaSubmitters)

	var d *deployment
	var wc *wireClient
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		if d != nil {
			wc.Close()
			d.stop()
		}
		t0 := time.Now()
		root := filepath.Join(b.work, fmt.Sprintf("meta-%d", i))
		if err := b.runGen("-out", root, "-servers", strconv.Itoa(metaServers), "-replicas", strconv.Itoa(metaReplicas),
			"-kind", "meta", "-vertices", strconv.Itoa(metaVertices), "-seed", strconv.Itoa(metaGraphSeed)); err != nil {
			return err
		}
		data := make([]string, metaServers)
		for s := range data {
			data[s] = filepath.Join(root, fmt.Sprintf("server-%02d", s))
		}
		if d, err = b.deploy(data, metaReplicas, 1, "-index", "name", "-cache-bytes", strconv.Itoa(metaCacheBytes)); err != nil {
			return err
		}
		if wc, err = d.dial(metaServers); err != nil {
			return err
		}
		// Warm-up: one pass over the mix, answers checked like the timed ones.
		for _, qi := range passes[0] {
			q := qs[qi]
			h, err := wc.submit(q)
			var res []graphtrek.VertexID
			if err == nil {
				res, err = h.Wait(travelTimeout)
			}
			if err != nil {
				return fmt.Errorf("warm-up %s: %w", q.Name, err)
			}
			if diff := diffIDs(res, want[qi]); diff != "" {
				b.check(false, "warm-up %s #%d: %s", q.Name, qi, diff)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer wc.Close()
	defer d.stop()
	bytes, ssts := dirStats(filepath.Join(b.work, fmt.Sprintf("meta-%d", setupRounds-1)))

	before, err := d.scrape()
	if err != nil {
		return err
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
		next                      atomic.Int64
		mu                        sync.Mutex
		lat                       []float64
		kindLat                   = make(map[string][]float64)
		wantScanned, provenanceOK int
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < metaSubmitters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < b.window {
				i := int(next.Add(1) - 1)
				qi := passes[(i/len(qs))%len(passes)][i%len(qs)]
				t0 := time.Now()
				h, err := wc.submit(qs[qi])
				var res []graphtrek.VertexID
				if err == nil {
					res, err = h.Wait(travelTimeout)
				}
				dur := time.Since(t0)
				b.count(err != nil)
				if err != nil {
					fmt.Printf("# %s #%d failed: %v\n", qs[qi].Name, qi, err)
					continue
				}
				if diff := diffIDs(res, want[qi]); diff != "" {
					b.check(false, "%s #%d: %s", qs[qi].Name, qi, diff)
				}
				if blocks != nil {
					var tt *travelTrace
					if blocks.tracedAt(t0) {
						dag, err := h.FetchDAG(5 * time.Second)
						if err != nil {
							b.check(false, "fetch trace DAG: %v", err)
						} else {
							t := dagTrace(dur, dag)
							tt = &t
						}
					}
					blocks.travel(t0, dur, len(res), tt)
				}
				mu.Lock()
				lat = append(lat, ms(dur))
				kindLat[qs[qi].Name] = append(kindLat[qs[qi].Name], ms(dur))
				wantScanned += matches[qi]
				if qs[qi].Name == "provenance" {
					provenanceOK++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if blocks != nil {
		if err := blocks.stop(); err != nil {
			return err
		}
	}
	after, err := d.scrape()
	if err != nil {
		return err
	}
	b.noteDeath(d)
	delta := after.sub(before)
	b.checkIdentity(delta)
	b.check(delta.c["seed_scanned_total"] == float64(wantScanned),
		"seed_scanned %.0f over the window, want %d: one per index match of %d provenance queries",
		delta.c["seed_scanned_total"], wantScanned, provenanceOK)
	wc.Close()
	d.stop()

	b.setE2E("setup_s", "s", median(setups))
	b.setE2E("travel_p50_ms", "ms", median(lat))
	b.setE2E("travels_per_s", "1/s", float64(len(lat))/elapsed.Seconds())
	b.setE2E("rss_peak_mb", "MB", d.rssMB)
	b.note("%d traversals in %.1fs, travel_p90_ms %.3f", len(lat), elapsed.Seconds(), quantile(lat, 0.9))
	// travel_p50_ms is the whole mix's median, which falls among the
	// fan-outs; each kind's own median shows a change to the paths only
	// the audits or the provenance queries take.
	for _, kind := range []string{"audit", "provenance", "fanout"} {
		b.note("%s: %d traversals, p50_ms %.3f", kind, len(kindLat[kind]), median(kindLat[kind]))
	}
	if blocks != nil {
		in := blocks.inputs()
		in.mutations, in.diskBytes, in.sstables = len(m.vertices)+len(m.edges), bytes, ssts
		b.setLayers(in)
	}
	return nil
}
