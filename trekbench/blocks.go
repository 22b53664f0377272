package main

import (
	"sync"
	"time"
)

// traceBlock is the length of the blocks a traced run alternates between.
// Even blocks run untraced; in odd blocks the causal DAG of every traversal
// begun there is fetched after it completes. The counter, histogram and
// runtime figures come from the untraced blocks only, so the DAG pulls'
// own messages, CPU time and garbage stay out of them; the critical-path
// figures come from the traced blocks; and trace.overhead_ratio and
// trace.throughput_ratio compare the two kinds of block under the same
// load. Blocks of one second interleave often enough that a drift over the
// window (a growing graph, a warming cache) falls on both kinds alike.
const traceBlock = time.Second

// blockMeter splits a traced run's window into alternating blocks and
// keeps what each kind of block saw.
type blockMeter struct {
	start time.Time
	read  func() (sample, time.Duration, error) // counters and server CPU time

	mu       sync.Mutex
	untraced sample        // counter and histogram activity in untraced blocks
	cpu      time.Duration // server CPU time in untraced blocks
	secs     [2]float64    // time spent in untraced [0] and traced [1] blocks
	lat      [2][]float64  // latencies (ms) of the traversals begun in each
	results  [2]int        // vertices those traversals returned
	ops      [2]int        // timed operations of every kind begun in each
	dags     []travelTrace // traversals of the traced blocks
	err      error

	last    sample
	lastCPU time.Duration
	lastAt  time.Time
	stopc   chan struct{}
	done    chan struct{}
}

// startBlocks takes the first reading and starts the window.
func startBlocks(read func() (sample, time.Duration, error)) (*blockMeter, error) {
	s, cpu, err := read()
	if err != nil {
		return nil, err
	}
	m := &blockMeter{
		read: read, untraced: newSample(), last: s, lastCPU: cpu,
		stopc: make(chan struct{}), done: make(chan struct{}),
	}
	m.start = time.Now()
	m.lastAt = m.start
	go m.loop()
	return m, nil
}

// kind is 1 for an instant in a traced block, 0 otherwise.
func (m *blockMeter) kind(t time.Time) int { return int(t.Sub(m.start)/traceBlock) % 2 }

// tracedAt reports whether an operation begun at t has its DAG fetched.
func (m *blockMeter) tracedAt(t time.Time) bool { return m.kind(t) == 1 }

func (m *blockMeter) loop() {
	defer close(m.done)
	for k := 1; ; k++ {
		select {
		case <-m.stopc:
			return
		case <-time.After(time.Until(m.start.Add(time.Duration(k) * traceBlock))):
			m.reading()
		}
	}
}

// reading closes the block in progress: the activity since the last
// reading joins the untraced totals if that block ran untraced.
func (m *blockMeter) reading() {
	s, cpu, err := m.read()
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		if m.err == nil {
			m.err = err
		}
		return
	}
	k := m.kind(m.lastAt)
	m.secs[k] += now.Sub(m.lastAt).Seconds()
	if k == 0 {
		m.untraced.add(s.sub(m.last))
		m.cpu += cpu - m.lastCPU
	}
	m.last, m.lastCPU, m.lastAt = s, cpu, now
}

// travel records a completed traversal begun at begun, and its DAG if it
// was traced.
func (m *blockMeter) travel(begun time.Time, lat time.Duration, results int, dag *travelTrace) {
	k := m.kind(begun)
	m.mu.Lock()
	m.lat[k] = append(m.lat[k], ms(lat))
	m.results[k] += results
	m.ops[k]++
	if dag != nil {
		m.dags = append(m.dags, *dag)
	}
	m.mu.Unlock()
}

// op records a timed operation other than a traversal.
func (m *blockMeter) op(begun time.Time) {
	k := m.kind(begun)
	m.mu.Lock()
	m.ops[k]++
	m.mu.Unlock()
}

// stop ends the window with a last reading once the load has stopped.
func (m *blockMeter) stop() error {
	close(m.stopc)
	<-m.done
	m.reading()
	return m.err
}

// inputs returns the per-layer inputs the blocks measured; the workload
// adds its own figures.
func (m *blockMeter) inputs() layerInputs {
	return layerInputs{
		delta: m.untraced, travels: len(m.lat[0]), results: m.results[0], ops: m.ops[0],
		window: time.Duration(m.secs[0] * float64(time.Second)), serverCPU: m.cpu,
		traced:     m.dags,
		overhead:   ratio(median(m.lat[1]), median(m.lat[0])),
		throughput: ratio(ratio(float64(len(m.lat[1])), m.secs[1]), ratio(float64(len(m.lat[0])), m.secs[0])),
	}
}
