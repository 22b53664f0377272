package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"graphtrek"
	"graphtrek/internal/gen"
)

// rmat-8hop is the traversal of the paper's Table I and Fig 10: an
// in-process cluster of 8 servers holding RMAT-1 at the small scale (2^12
// vertices, average out-degree 8) on the paper's simulated disk (100µs per
// access, one slot), reset cold before every traversal. One closed-loop
// client runs V(seed).E("link")^8 in ModeGraphTrek over a seeded list of
// start vertices. The asynchronous engine, the traversal-affiliate cache,
// scheduler merging and the simulated disk do nearly all the work; the
// wire codec, TCP and the kv store do none.
const (
	rmatServers = 8
	rmatScale   = 12
	rmatDegree  = 8
	rmatHops    = 8
	rmatStarts  = 64 // start vertices in the seeded list
	setupRounds = 9  // set-ups per run; setup_s reports their median
	// rmatGraphSeed fixes the graph, as the paper runs one RMAT-1 graph;
	// --seed draws the start vertices.
	rmatGraphSeed = 1
)

func rmatOptions() graphtrek.Options {
	return graphtrek.Options{
		Servers:         rmatServers,
		DiskService:     100 * time.Microsecond,
		DiskParallelism: 1,
	}
}

func runRMAT(b *bench) error {
	// The check's copy of the graph: the generator's edge list, drawn
	// again into the benchmark's own memory.
	var edges [][2]graphtrek.VertexID
	outDeg := make([]int, 1<<rmatScale)
	_, err := gen.RMAT(gen.RMAT1(rmatScale, rmatDegree, rmatGraphSeed), gen.Funcs{
		Vertex: func(graphtrek.Vertex) error { return nil },
		Edge: func(e graphtrek.Edge) error {
			edges = append(edges, [2]graphtrek.VertexID{e.Src, e.Dst})
			outDeg[e.Src]++
			return nil
		},
	})
	if err != nil {
		return err
	}
	// Start vertices: drawn from those with at least the average
	// out-degree, so that every traversal reaches the graph's core, as the
	// paper's runs do.
	var cands []graphtrek.VertexID
	for v, d := range outDeg {
		if d >= rmatDegree {
			cands = append(cands, graphtrek.VertexID(v))
		}
	}
	rng := rand.New(rand.NewSource(b.seed))
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	starts := cands[:min(rmatStarts, len(cands))]
	want := make(map[graphtrek.VertexID][]graphtrek.VertexID, len(starts))
	for _, s := range starts {
		want[s] = walk(edges, 1<<rmatScale, s, rmatHops)
	}
	fmt.Printf("# rmat-8hop: RMAT-1 scale %d degree %d (%d edge draws), %d servers, %d start vertices\n",
		rmatScale, rmatDegree, len(edges), rmatServers, len(starts))

	var c *graphtrek.Cluster
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		if c != nil {
			c.Close()
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		c, err = graphtrek.NewCluster(rmatOptions())
		if err != nil {
			return err
		}
		if _, err := gen.RMAT(gen.RMAT1(rmatScale, rmatDegree, rmatGraphSeed), c.Sink()); err != nil {
			c.Close()
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer c.Close()

	hops := make([]hop, rmatHops)
	for i := range hops {
		hops[i] = hop{Edge: "link"}
	}
	var lat []float64
	before := clusterSample(c)
	var blocks *blockMeter
	if b.trace {
		blocks, err = startBlocks(func() (sample, time.Duration, error) { return clusterSample(c), procCPU(0), nil })
		if err != nil {
			return err
		}
	}
	start := time.Now()
	for i := 0; time.Since(start) < b.window; i++ {
		s := starts[i%len(starts)]
		c.ResetDisks()
		t0 := time.Now()
		h, err := c.RunAsync(querySpec{Seeds: []graphtrek.VertexID{s}, Hops: hops}.travel(), graphtrek.ModeGraphTrek)
		var res []graphtrek.VertexID
		if err == nil {
			res, err = h.Wait(travelTimeout)
		}
		d := time.Since(t0)
		b.count(err != nil)
		if err != nil {
			fmt.Printf("# traversal from %d failed: %v\n", s, err)
			continue
		}
		lat = append(lat, ms(d))
		if diff := diffIDs(res, want[s]); diff != "" {
			b.check(false, "V(%d).E(link)^%d: %s", s, rmatHops, diff)
		}
		if blocks != nil {
			var tt *travelTrace
			if blocks.tracedAt(t0) {
				dag, err := h.FetchDAG(5 * time.Second)
				if err != nil {
					return fmt.Errorf("fetch trace DAG: %w", err)
				}
				t := dagTrace(d, dag)
				tt = &t
			}
			blocks.travel(t0, d, len(res), tt)
		}
	}
	elapsed := time.Since(start)
	if blocks != nil {
		if err := blocks.stop(); err != nil {
			return err
		}
	}
	delta := clusterSample(c).sub(before)
	b.checkIdentity(delta)

	b.setE2E("setup_s", "s", median(setups))
	b.setE2E("travel_p50_ms", "ms", median(lat))
	b.setE2E("travels_per_s", "1/s", float64(len(lat))/elapsed.Seconds())
	b.setE2E("rss_peak_mb", "MB", procStatusMB(0, "VmHWM"))
	b.note("%d traversals in %.1fs, travel_p90_ms %.3f", len(lat), elapsed.Seconds(), quantile(lat, 0.9))
	if blocks != nil {
		b.setLayers(blocks.inputs())
	}
	return nil
}

// checkIdentity checks the paper's §VII-A accounting over a window: every
// received request was dropped as redundant, combined into another's
// access, or read for real.
func (b *bench) checkIdentity(delta sample) {
	c := delta.c
	b.check(c["redundant_total"]+c["combined_total"]+c["real_io_total"] == c["received_total"],
		"redundant %.0f + combined %.0f + real %.0f != received %.0f",
		c["redundant_total"], c["combined_total"], c["real_io_total"], c["received_total"])
}
