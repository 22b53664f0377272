package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// deployment is a set of graphtrek-server processes on loopback TCP. Node
// ids 0..servers-1 are the backends; the client slots follow.
type deployment struct {
	servers  int
	replicas int
	addrs    []string // backends, then client slots
	obs      []string // each backend's observability endpoint
	data     []string // each backend's partition directory
	procs    []*exec.Cmd
	exited   []chan struct{}

	mu      sync.Mutex
	stopped bool
	rssMB   float64 // summed VmHWM of the backends, read before stopping
}

var (
	liveMu          sync.Mutex
	liveDeployments = map[*deployment]bool{}
)

// stopAllClusters stops every deployment still running: the exit, failure
// and interrupt paths all end here.
func stopAllClusters() {
	liveMu.Lock()
	ds := make([]*deployment, 0, len(liveDeployments))
	for d := range liveDeployments {
		ds = append(ds, d)
	}
	liveMu.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// freePorts reserves n distinct loopback addresses by binding port 0 and
// releasing the sockets together.
func freePorts(n int) ([]string, error) {
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve loopback port: %w", err)
		}
		lns = append(lns, ln)
		out = append(out, ln.Addr().String())
	}
	return out, nil
}

// deploy starts one graphtrek-server per partition directory and waits
// until every /readyz answers 200. extra is appended to every server's
// arguments. On error every started process is stopped.
func (b *bench) deploy(data []string, replicas, clientSlots int, extra ...string) (*deployment, error) {
	n := len(data)
	ports, err := freePorts(2*n + clientSlots)
	if err != nil {
		return nil, err
	}
	d := &deployment{
		servers: n, replicas: replicas,
		addrs: ports[:n+clientSlots], obs: ports[n+clientSlots:],
		data: data,
	}
	liveMu.Lock()
	liveDeployments[d] = true
	liveMu.Unlock()
	for i := 0; i < n; i++ {
		args := []string{
			"-id", strconv.Itoa(i), "-servers", strconv.Itoa(n),
			"-addrs", strings.Join(d.addrs, ","), "-data", data[i],
			"-obs-addr", d.obs[i], "-replicas", strconv.Itoa(replicas),
		}
		cmd := exec.Command(filepath.Join(b.bin, "graphtrek-server"), append(args, extra...)...)
		logf, err := os.Create(filepath.Join(b.work, fmt.Sprintf("server-%d-%d.log", i, time.Now().UnixNano())))
		if err != nil {
			d.stop()
			return nil, err
		}
		cmd.Stdout, cmd.Stderr = logf, logf
		// A server outlives no crashed benchmark: the kernel sends it
		// SIGTERM when its parent goes away.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
		if err := cmd.Start(); err != nil {
			logf.Close()
			d.stop()
			return nil, fmt.Errorf("start graphtrek-server %d: %w", i, err)
		}
		done := make(chan struct{})
		go func() {
			cmd.Wait()
			logf.Close()
			close(done)
		}()
		d.procs = append(d.procs, cmd)
		d.exited = append(d.exited, done)
	}
	if err := d.waitReady(30 * time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// waitReady polls every backend's /readyz until each answers 200.
func (d *deployment) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	hc := &http.Client{Timeout: time.Second}
	for i, addr := range d.obs {
		for {
			if err := d.deadErr(); err != nil {
				return err
			}
			resp, err := hc.Get("http://" + addr + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("server %d not ready after %v", i, timeout)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// deadErr reports the first backend that has exited.
func (d *deployment) deadErr() error {
	for i, ch := range d.exited {
		select {
		case <-ch:
			return fmt.Errorf("graphtrek-server %d exited: %v", i, d.procs[i].ProcessState)
		default:
		}
	}
	return nil
}

// sampleProcs reads the backends' peak resident memory and CPU time; stop
// calls it last, before the processes go away.
func (d *deployment) sampleProcs() (rssMB float64, cpu time.Duration) {
	for _, p := range d.procs {
		rssMB += procStatusMB(p.Process.Pid, "VmHWM")
		cpu += procCPU(p.Process.Pid)
	}
	return rssMB, cpu
}

// stop sends SIGTERM to every backend, waits for each to exit (SIGKILL
// after five seconds) and removes the partition directories.
func (d *deployment) stop() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped {
		return
	}
	d.stopped = true
	if d.deadErr() == nil {
		d.rssMB, _ = d.sampleProcs()
	}
	for i, p := range d.procs {
		select {
		case <-d.exited[i]:
			continue
		default:
		}
		p.Process.Signal(syscall.SIGTERM)
	}
	for i, p := range d.procs {
		select {
		case <-d.exited[i]:
		case <-time.After(5 * time.Second):
			p.Process.Kill()
			<-d.exited[i]
		}
	}
	for _, dir := range d.data {
		os.RemoveAll(dir)
	}
	liveMu.Lock()
	delete(liveDeployments, d)
	liveMu.Unlock()
}

// scrape reads every backend's /metrics exposition into one sample:
// counters summed, gauges summed except queue_depth_peak (the largest),
// histograms merged bucket by bucket.
func (d *deployment) scrape() (sample, error) {
	s := newSample()
	hc := &http.Client{Timeout: 5 * time.Second}
	for i, addr := range d.obs {
		resp, err := hc.Get("http://" + addr + "/metrics")
		if err != nil {
			return s, fmt.Errorf("scrape server %d: %w", i, err)
		}
		err = s.parseExposition(bufio.NewScanner(resp.Body))
		resp.Body.Close()
		if err != nil {
			return s, fmt.Errorf("scrape server %d: %w", i, err)
		}
	}
	return s, nil
}

// parseExposition folds one Prometheus text exposition into s.
func (s sample) parseExposition(sc *bufio.Scanner) error {
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return fmt.Errorf("bad sample %q", line)
		}
		name, labels := line[:sp], ""
		if br := strings.IndexByte(name, '{'); br >= 0 {
			name, labels = name[:br], name[br:]
		}
		name = strings.TrimPrefix(name, "graphtrek_")
		switch {
		case strings.HasSuffix(name, "_bucket"):
			le := labelValue(labels, "le")
			bound := float64(-1)
			if le != "+Inf" {
				sec, err := strconv.ParseFloat(le, 64)
				if err != nil {
					return fmt.Errorf("bad bucket bound %q", line)
				}
				bound = sec * 1e9
			}
			s.addBucket(strings.TrimSuffix(name, "_bucket"), bound, v)
		case strings.HasSuffix(name, "_seconds_sum"), strings.HasSuffix(name, "_seconds_count"):
			// Folded from the buckets.
		case name == "queue_depth_peak":
			if v > s.c[name] {
				s.c[name] = v
			}
		default:
			s.c[name] += v
		}
	}
	return sc.Err()
}

func labelValue(labels, key string) string {
	i := strings.Index(labels, key+`="`)
	if i < 0 {
		return ""
	}
	rest := labels[i+len(key)+2:]
	if j := strings.IndexByte(rest, '"'); j >= 0 {
		return rest[:j]
	}
	return ""
}

// runGen runs graphtrek-gen with the given arguments.
func (b *bench) runGen(args ...string) error {
	out, err := exec.Command(filepath.Join(b.bin, "graphtrek-gen"), args...).CombinedOutput()
	if err != nil {
		return fmt.Errorf("graphtrek-gen %s: %v: %s", strings.Join(args, " "), err, out)
	}
	return nil
}

// noteDeath reports a backend that exited during the run. Its operations
// have already failed and are counted as failed; they stay in the run.
func (b *bench) noteDeath(d *deployment) {
	if err := d.deadErr(); err != nil {
		b.note("SERVER DIED: %v", err)
	}
}
