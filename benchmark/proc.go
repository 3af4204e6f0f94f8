package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"astore/internal/server"
)

// tailBuffer keeps the last bytes a child wrote to stderr, for the error
// message when it fails to come up.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - 8192; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// node is one astore-serve child process.
type node struct {
	addr   string
	cmd    *exec.Cmd
	stderr *tailBuffer
	exited chan struct{} // closed once the process has been waited for
}

func (n *node) url(path string) string { return "http://" + n.addr + path }

// freeAddr reserves a loopback port by binding it and letting it go.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func startNode(bin, addr string, flags []string) (*node, error) {
	n := &node{addr: addr, stderr: &tailBuffer{}, exited: make(chan struct{})}
	n.cmd = exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	n.cmd.Stderr = n.stderr
	// A harness that dies must not leave servers behind.
	n.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := n.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		_ = n.cmd.Wait() // the exit status of a stopped server carries nothing
		close(n.exited)
	}()
	return n, nil
}

// stop asks the server to drain and waits for the process to end, killing
// it if it does not.
func (n *node) stop() {
	_ = n.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-n.exited:
	case <-time.After(10 * time.Second):
		_ = n.cmd.Process.Kill()
		<-n.exited
	}
}

// cluster is the program under test: one astore-serve, or a coordinator in
// front of shard workers. Queries and appends go to front; scans run on
// execs (the single node itself, or the workers).
type cluster struct {
	front *node
	execs []*node
	all   []*node
	admin *http.Client
}

// launch starts the servers a flow asks for and returns once the front
// answers /healthz with status ok (on a coordinator: every shard reachable).
func launch(ctx context.Context, bin string, f *Flow) (*cluster, error) {
	c := &cluster{admin: &http.Client{Timeout: 30 * time.Second}}
	ok := false
	defer func() {
		if !ok {
			c.stop()
		}
	}()
	start := func(flags []string) (*node, error) {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		n, err := startNode(bin, addr, flags)
		if err != nil {
			return nil, err
		}
		c.all = append(c.all, n)
		return n, nil
	}
	if f.shardWorkers == 0 {
		n, err := start(f.serverFlags)
		if err != nil {
			return nil, err
		}
		c.front, c.execs = n, []*node{n}
	} else {
		var addrs []string
		for i := 0; i < f.shardWorkers; i++ {
			n, err := start(append(append([]string(nil), f.serverFlags...), "-worker"))
			if err != nil {
				return nil, err
			}
			c.execs = append(c.execs, n)
			addrs = append(addrs, n.addr)
		}
		n, err := start(append(append([]string(nil), f.serverFlags...), "-shards", strings.Join(addrs, ",")))
		if err != nil {
			return nil, err
		}
		c.front = n
	}
	if err := c.awaitHealthy(ctx); err != nil {
		return nil, err
	}
	ok = true
	return c, nil
}

func (c *cluster) stop() {
	for _, n := range c.all {
		n.stop()
	}
}

// awaitHealthy polls until every node is up. A child that exits first is an
// error carrying its stderr.
func (c *cluster) awaitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(120 * time.Second)
	for _, n := range c.all {
		for {
			healthy, _, err := c.health(n)
			if healthy {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("server %s did not come up: %v\n%s", n.addr, err, n.stderr)
			}
			select {
			case <-n.exited:
				return fmt.Errorf("server %s exited during start-up\n%s", n.addr, n.stderr)
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
	return nil
}

// health reads one node's /healthz: whether it reports status ok (a
// coordinator reports "degraded" while a shard is unreachable) and how many
// shard workers it can reach.
func (c *cluster) health(n *node) (ok bool, reachable int, err error) {
	resp, err := c.admin.Get(n.url("/healthz"))
	if err != nil {
		return false, 0, err
	}
	defer resp.Body.Close()
	var h struct {
		Status string `json:"status"`
		Shards []struct {
			Reachable bool `json:"reachable"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return false, 0, err
	}
	for _, s := range h.Shards {
		if s.Reachable {
			reachable++
		}
	}
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		return false, reachable, fmt.Errorf("healthz: %d %q", resp.StatusCode, h.Status)
	}
	return true, reachable, nil
}

func (c *cluster) nodeStats(n *node) (server.Stats, error) {
	var st server.Stats
	resp, err := c.admin.Get(n.url("/v1/stats"))
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// observation is everything the harness can read about the cluster from
// outside at one instant: serving counters, the query latency histogram, and
// the processes' CPU time.
type observation struct {
	front    server.Stats   // admission, endpoints, shard, plan cache
	exec     server.DBStats // scan-side counters summed over the executing nodes
	fact     server.TableStats
	hist     []histBucket // front's query endpoint, cumulative
	cpuTicks int64        // utime+stime of every server process
	rssPeak  float64      // VmHWM summed over the server processes, MB
}

func (c *cluster) observe() (observation, error) {
	var o observation
	var err error
	if o.front, err = c.nodeStats(c.front); err != nil {
		return o, err
	}
	for _, n := range c.execs {
		st := o.front
		if n != c.front {
			if st, err = c.nodeStats(n); err != nil {
				return o, err
			}
		}
		addDBStats(&o.exec, &st.DB)
		if n == c.execs[0] {
			o.fact = st.Tables[factTable]
		}
	}
	if o.hist, err = c.queryHistogram(); err != nil {
		return o, err
	}
	for _, n := range c.all {
		t, err := procCPUTicks(n.cmd.Process.Pid)
		if err != nil {
			return o, err
		}
		o.cpuTicks += t
	}
	o.rssPeak, err = c.rssPeakMB()
	return o, err
}

// addDBStats sums the scan-side counters of one node into dst.
func addDBStats(dst, s *server.DBStats) {
	dst.Execs += s.Execs
	dst.SegmentsTotal += s.SegmentsTotal
	dst.SegmentsPruned += s.SegmentsPruned
	dst.RowsScanned += s.RowsScanned
	dst.RowsSelected += s.RowsSelected
	dst.EncodedSegments += s.EncodedSegments
	dst.TailRows += s.TailRows
	dst.AggCacheHits += s.AggCacheHits
	dst.AggCacheMisses += s.AggCacheMisses
	dst.AggCacheEvictions += s.AggCacheEvictions
	dst.BindCacheHits += s.BindCacheHits
	dst.BindCacheMisses += s.BindCacheMisses
}

// histBucket is one cumulative Prometheus histogram bucket.
type histBucket struct {
	le    float64 // upper bound in seconds; +Inf for the last
	count float64
}

// queryHistogram scrapes the front's /metrics for the query endpoint's
// request-duration buckets.
func (c *cluster) queryHistogram() ([]histBucket, error) {
	resp, err := c.admin.Get(c.front.url("/metrics"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseHistogram(resp.Body, `astore_http_request_duration_seconds_bucket{endpoint="query",le="`)
}

// parseHistogram reads the bucket lines that start with prefix, which ends
// just before the le value.
func parseHistogram(r io.Reader, prefix string) ([]histBucket, error) {
	var out []histBucket
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), prefix)
		if !ok {
			continue
		}
		le, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			return nil, fmt.Errorf("malformed bucket line %q", sc.Text())
		}
		bound, err := strconv.ParseFloat(le, 64) // accepts "+Inf"
		if err != nil {
			return nil, fmt.Errorf("bucket bound %q: %w", le, err)
		}
		count, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("bucket count %q: %w", val, err)
		}
		out = append(out, histBucket{le: bound, count: count})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no %s lines in /metrics", prefix)
	}
	return out, nil
}

// windowQuantile estimates quantile q of the observations made between two
// scrapes of one cumulative histogram. It returns the bucket's lower and
// upper bound and the value interpolated between them, in seconds.
func windowQuantile(before, after []histBucket, q float64) (lo, est, hi float64) {
	if len(before) != len(after) || len(after) == 0 {
		return 0, 0, 0
	}
	total := after[len(after)-1].count - before[len(before)-1].count
	if total <= 0 {
		return 0, 0, 0
	}
	target := q * total
	prevCount, prevLE := 0.0, 0.0
	for i := range after {
		count := after[i].count - before[i].count
		if count >= target {
			hi = after[i].le
			if in := count - prevCount; in > 0 && hi < 1e300 {
				return prevLE, prevLE + (hi-prevLE)*(target-prevCount)/in, hi
			}
			return prevLE, prevLE, hi
		}
		prevCount, prevLE = count, after[i].le
	}
	return prevLE, prevLE, prevLE
}

// clockTicksPerSecond is USER_HZ, the unit of /proc/<pid>/stat times. It is
// 100 on every Linux ABI Go supports.
const clockTicksPerSecond = 100

// procCPUTicks is utime+stime of one process from /proc/<pid>/stat.
func procCPUTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted from
	// the closing parenthesis.
	i := bytes.LastIndexByte(b, ')')
	fields := strings.Fields(string(b[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed cpu times in /proc/%d/stat", pid)
	}
	return utime + stime, nil
}

// rssPeakMB sums VmHWM over the server processes.
func (c *cluster) rssPeakMB() (float64, error) {
	var kb int64
	for _, n := range c.all {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		_, rest, ok := strings.Cut(string(b), "VmHWM:")
		if !ok {
			return 0, fmt.Errorf("no VmHWM in /proc/%d/status", n.cmd.Process.Pid)
		}
		v, err := strconv.ParseInt(strings.Fields(rest)[0], 10, 64)
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return float64(kb) / 1024, nil
}
