package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"goingwild/internal/scanner"
)

// daemon is one running wildsvc.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:PORT
	// drained closes when the daemon's stderr reaches EOF, i.e. once it
	// has exited; tail keeps its last lines for error messages.
	drained chan struct{}
	mu      sync.Mutex
	tail    []string
}

const apiBanner = "wildsvc: query API on "

// startDaemon launches wildsvc on an ephemeral loopback port and waits
// for the line announcing the bound address.
func startDaemon(ctx context.Context, bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0")...)
	dieWithParent(cmd)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	bound := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, apiBanner); ok {
				select {
				case bound <- strings.TrimSpace(rest):
				default:
				}
				continue
			}
			d.mu.Lock()
			if d.tail = append(d.tail, line); len(d.tail) > 10 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
		}
	}()
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	select {
	case d.base = <-bound:
		return d, nil
	case <-d.drained:
		d.cmd.Wait()
		return nil, fmt.Errorf("wildsvc exited before announcing its address: %s", d.stderrTail())
	case <-ctx.Done():
		d.stop()
		return nil, fmt.Errorf("wildsvc did not announce its address: %w", ctx.Err())
	}
}

func (d *daemon) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

// stop interrupts the daemon, waits for it to exit (killing it if it
// ignores the interrupt), and returns its peak RSS in MB.
func (d *daemon) stop() float64 {
	d.cmd.Process.Signal(os.Interrupt)
	// Stopping is clean-up: it must run to the end even when the run's
	// own context is already cancelled, so the grace period is its own.
	grace, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	select {
	case <-d.drained:
	case <-grace.Done():
		d.cmd.Process.Kill()
		<-d.drained
	}
	// The exit status of an interrupted daemon is not a result.
	d.cmd.Wait()
	_, rss := exitedUsage(d.cmd.ProcessState)
	return rss
}

// getJSON fetches one of the daemon's JSON endpoints outside the timed
// request loop (status polls, pool fetch, metrics snapshots).
func (d *daemon) getJSON(path string, out any) error {
	resp, err := http.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return json.Unmarshal(body, out)
}

type svcStatus struct {
	Epoch   int `json:"epoch"`
	Records int `json:"records"`
}

// waitEpoch polls /svc/status until the committed epoch reaches want.
func (d *daemon) waitEpoch(ctx context.Context, want int) error {
	for {
		var st svcStatus
		if err := d.getJSON("/svc/status", &st); err != nil {
			return fmt.Errorf("waiting for epoch %d: %w (wildsvc said: %s)", want, err, d.stderrTail())
		}
		if st.Epoch >= want {
			return nil
		}
		if err := pause(ctx, 5*time.Millisecond); err != nil {
			return err
		}
	}
}

// pause sleeps for d on the repository's clock seam, cut short by ctx.
func pause(ctx context.Context, d time.Duration) error {
	if cs, ok := scanner.SystemClock.(scanner.ContextSleeper); ok {
		return cs.SleepContext(ctx, d)
	}
	scanner.SystemClock.Sleep(d)
	return ctx.Err()
}

// counters reads /metrics.json's counters into a map.
func (d *daemon) counters() (map[string]float64, error) {
	var snap struct {
		Counters []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"counters"`
	}
	if err := d.getJSON("/metrics.json", &snap); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(snap.Counters))
	for _, c := range snap.Counters {
		out[c.Name] = c.Value
	}
	return out, nil
}

// lookupAnswer is the part of /resolver's JSON the correctness gate reads.
type lookupAnswer struct {
	IP     string `json:"ip"`
	Known  bool   `json:"known"`
	Source string `json:"source"`
}

// client is one keep-alive HTTP/1.1 connection to the daemon. It writes
// requests by hand and parses responses with net/http's reader, so the
// measured latency is the server and the socket, not a client library's
// connection pool.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	host string
	req  []byte
}

func dialClient(base string) (*client, error) {
	host := strings.TrimPrefix(base, "http://")
	conn, err := net.Dial("tcp", host)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, br: bufio.NewReader(conn), host: host}, nil
}

// lookup sends GET /resolver?ip=<ip> and returns the status, the body,
// and the instants the request was written and the body fully read.
func (c *client) lookup(ip string) (status int, body []byte, t0, t1 time.Time, err error) {
	c.req = append(c.req[:0], "GET /resolver?ip="...)
	c.req = append(c.req, ip...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: "...)
	c.req = append(c.req, c.host...)
	c.req = append(c.req, "\r\n\r\n"...)
	t0 = time.Now()
	if _, err = c.conn.Write(c.req); err != nil {
		return 0, nil, t0, t0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, t0, t0, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, t0, time.Now(), err
}

// lookupSample is one timed lookup.
type lookupSample struct {
	us    float64
	probe bool // answered from a demand probe, not the store
}

// serveLoad is what one connection's closed loop produced.
type serveLoad struct {
	attempted int64
	samples   []lookupSample
	problems  []string
}

// requestSource yields a connection's next lookup: the address, and
// whether it came from the pool (and so must be known to the daemon).
// ok is false once the source is exhausted.
type requestSource func() (ip string, fromPool, ok bool)

// seededRequests binds a generated lookup stream to the daemon's pool;
// it never runs out.
func seededRequests(stream *lookupStream, pool []string, order uint) requestSource {
	space := uint32(1)<<order - 1
	return func() (string, bool, bool) {
		d := stream.next()
		if !d.Random {
			return pool[int(d.V%uint32(len(pool)))], true, true
		}
		u := 1 + d.V%space
		return netip.AddrFrom4([4]byte{byte(u >> 24), byte(u >> 16), byte(u >> 8), byte(u)}).String(), false, true
	}
}

// first cuts a source off after n requests.
func first(n int, next requestSource) requestSource {
	return func() (string, bool, bool) {
		if n--; n < 0 {
			return "", false, false
		}
		return next()
	}
}

// inOrder walks part once, front to back (the serve-hit warm-up pass).
func inOrder(part []string) requestSource {
	return func() (string, bool, bool) {
		if len(part) == 0 {
			return "", false, false
		}
		ip := part[0]
		part = part[1:]
		return ip, true, true
	}
}

// drive runs one connection's closed loop: the next request is sent only
// after the previous answer was read and checked. It stops when next runs
// out, at deadline (the zero time means none), and at the first transport
// error. Spans go to tr (nil on untimed and untraced loops).
func (c *client) drive(tr *tracer, root int, name string, conn int, next requestSource, hitOnly bool, deadline time.Time) serveLoad {
	var load serveLoad
	for deadline.IsZero() || time.Now().Before(deadline) {
		ip, fromPool, ok := next()
		if !ok {
			break
		}
		status, body, t0, t1, err := c.lookup(ip)
		load.attempted++
		if err != nil {
			load.problems = append(load.problems, fmt.Sprintf("lookup %s: %v", ip, err))
			break
		}
		var ans lookupAnswer
		switch jerr := json.Unmarshal(body, &ans); {
		case status != http.StatusOK:
			load.problems = append(load.problems, fmt.Sprintf("lookup %s: status %d", ip, status))
		case jerr != nil:
			load.problems = append(load.problems, fmt.Sprintf("lookup %s: %v", ip, jerr))
		case ans.IP != ip:
			load.problems = append(load.problems, fmt.Sprintf("lookup %s: answer is about %s", ip, ans.IP))
		case fromPool && !ans.Known:
			load.problems = append(load.problems, fmt.Sprintf("lookup %s: pool address answered known:false", ip))
		case hitOnly && ans.Source != "store":
			load.problems = append(load.problems, fmt.Sprintf("lookup %s: source %q on the pure store path", ip, ans.Source))
		default:
			load.samples = append(load.samples, lookupSample{us: float64(t1.Sub(t0)) / 1e3, probe: ans.Source == "probe"})
			tr.add("client GET /resolver", root, name, int64(conn)<<32|load.attempted, t0, t1)
		}
	}
	return load
}

// serveClients is how many closed-loop connections drive the daemon: one
// per core, at most two, so the load generator never outnumbers the
// cores it shares with the server.
func serveClients() int {
	return min(runtime.NumCPU(), 2)
}

// churnWarmLookups is the untimed warm-up each serve-churn connection
// sends so connection set-up is not in the window.
const churnWarmLookups = 256

// churnEpochs keeps wildsvc committing epochs for the whole window.
const churnEpochs = 1000000

// serving is a daemon that is ready to be measured: started, at the
// epoch the workload needs, its pool fetched, its connections warm.
type serving struct {
	d       *daemon
	clients []*client
	pool    []string
}

// close drops the connections and stops the daemon; it returns the
// daemon's peak RSS in MB.
func (s *serving) close() float64 {
	for _, c := range s.clients {
		c.conn.Close()
	}
	return s.d.stop()
}

// driveAll runs every connection's closed loop at once; source builds
// connection i's request source.
func (s *serving) driveAll(tr *tracer, root int, name string, hitOnly bool, deadline time.Time, source func(i int) requestSource) []serveLoad {
	loads := make([]serveLoad, len(s.clients))
	var wg sync.WaitGroup
	for i, c := range s.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			loads[i] = c.drive(tr, root, name, i, source(i), hitOnly, deadline)
		}(i, c)
	}
	wg.Wait()
	return loads
}

// startServing is a serve workload's whole set-up: start the daemon, wait
// for the epoch the workload needs, fetch the pool, and send the untimed
// warm-up — on serve-hit one pass over the whole pool, split between the
// connections, which also re-confirms every flappy record so the window
// stays on the store path; on serve-churn a short burst, after which the
// window waits for its fixed opening epoch.
func startServing(ctx context.Context, rc runConfig, name string, churn bool) (_ *serving, err error) {
	order, epochs, waitFor, poolQuery := rc.Size.HitOrder, rc.Size.HitEpochs, rc.Size.HitEpochs-1, "/resolvers?limit=0"
	if churn {
		order, epochs, waitFor, poolQuery = rc.Size.ChurnOrder, churnEpochs, rc.Size.ChurnWaitEpoch, "/resolvers?limit=0&open=1"
	}
	d, err := startDaemon(ctx, rc.Bins.Wildsvc,
		"-order", strconv.FormatUint(uint64(order), 10),
		"-epochs", strconv.Itoa(epochs),
		"-seed", strconv.FormatUint(rc.Seed, 10))
	if err != nil {
		return nil, err
	}
	s := &serving{d: d}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if err := d.waitEpoch(ctx, waitFor); err != nil {
		return nil, err
	}
	var records []lookupAnswer
	if err := d.getJSON(poolQuery, &records); err != nil {
		return nil, err
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("%s returned an empty pool", poolQuery)
	}
	for _, rec := range records {
		s.pool = append(s.pool, rec.IP)
	}
	nconn := serveClients()
	for i := 0; i < nconn; i++ {
		c, err := dialClient(d.base)
		if err != nil {
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	warm := s.driveAll(nil, -1, name, false, time.Time{}, func(i int) requestSource {
		if churn {
			return first(churnWarmLookups, seededRequests(newLookupStream(rc.Seed, nconn+i, true), s.pool, order))
		}
		return inOrder(s.pool[i*len(s.pool)/nconn : (i+1)*len(s.pool)/nconn])
	})
	for _, w := range warm {
		if len(w.problems) > 0 {
			return nil, fmt.Errorf("warm-up: %s", w.problems[0])
		}
	}
	if churn {
		if err := d.waitEpoch(ctx, rc.Size.ChurnStartEpoch); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// runServe is serve-hit (churn=false) and serve-churn (churn=true): the
// built wildsvc answering GET /resolver over host loopback to a closed
// loop of keep-alive connections.
func runServe(ctx context.Context, rc runConfig, churn bool) (*result, error) {
	name, order := "serve-hit", rc.Size.HitOrder
	if churn {
		name, order = "serve-churn", rc.Size.ChurnOrder
	}
	var (
		s      *serving
		setups []time.Duration
	)
	for rep := 0; rep < rc.Size.SetupReps; rep++ {
		if s != nil {
			s.close()
		}
		start := time.Now()
		var err error
		if s, err = startServing(ctx, rc, name, churn); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
	}
	d := s.d
	defer func() {
		if s != nil {
			s.close()
		}
	}()

	r := &result{Setup: medianDuration(setups), Layer: map[string]float64{}}
	var before, after svcStatus
	var countersBefore map[string]float64
	if rc.Trace != nil {
		var err error
		if countersBefore, err = d.counters(); err != nil {
			return nil, err
		}
	}
	if err := d.getJSON("/svc/status", &before); err != nil {
		return nil, err
	}
	// The window is cut into slices of one second (or the whole window,
	// if shorter). Around each slice the daemon's CPU clock is read, and
	// between slices, while the connections rest, the yardstick runs; the
	// daemon does not rest, so on serve-churn its sweeper shares the cores
	// with the yardstick as it does with the lookups.
	slice := min(time.Second, rc.Window)
	slices := int(rc.Window / slice)
	sources := make([]requestSource, len(s.clients))
	for i := range sources {
		sources[i] = seededRequests(newLookupStream(rc.Seed, i, churn), s.pool, order)
	}
	var loads []serveLoad
	r.Intervals = make([]interval, slices)
	root := rc.Trace.begin("window", -1, name, 0)
	start := time.Now()
	r.Yard.burst()
	for k := range r.Intervals {
		cpu0, err := pidCPU(d.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		part := s.driveAll(rc.Trace, root, name, !churn, t0.Add(slice), func(i int) requestSource { return sources[i] })
		wall := time.Since(t0)
		cpu1, err := pidCPU(d.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		iv := interval{Wall: wall, CPU: cpu1 - cpu0}
		for _, l := range part {
			iv.Work += float64(len(l.samples))
		}
		r.Intervals[k] = iv
		loads = append(loads, part...)
		r.Yard.burst()
	}
	wall := time.Since(start)
	rc.Trace.end(root)
	if err := d.getJSON("/svc/status", &after); err != nil {
		return nil, err
	}
	// serve-churn is a transient — its rate falls all through the window
	// — so a median over slices would report whichever second the median
	// lands in; its slices add up to one interval, as the census's cycle
	// is one.
	if churn {
		var whole interval
		for _, iv := range r.Intervals {
			whole.Work += iv.Work
			whole.Wall += iv.Wall
			whole.CPU += iv.CPU
		}
		r.Intervals = []interval{whole}
	}

	var hits, probes []float64
	for _, l := range loads {
		r.Attempted += l.attempted
		for _, p := range l.problems {
			r.fail("%s", p)
		}
		for _, s := range l.samples {
			r.OpMs = append(r.OpMs, s.us/1e3)
			if s.probe {
				probes = append(probes, s.us)
			} else {
				hits = append(hits, s.us)
			}
		}
	}
	all := append(append([]float64(nil), hits...), probes...)
	r.Layer["lookups_per_s"] = r.opsPerS()
	r.Layer["lookup_p50_us"] = quantile(all, 0.50)
	r.Layer["lookup_p99_us"] = quantile(all, 0.99)
	r.Layer["lookup_p999_us"] = quantile(all, 0.999)
	r.Layer["lookup_max_us"] = quantile(all, 1)
	r.Layer["epochs_per_s"] = float64(after.Epoch-before.Epoch) / wall.Seconds()
	r.Layer["hit_p50_us"] = quantile(hits, 0.50)
	r.Layer["hit_p99_us"] = quantile(hits, 0.99)
	r.Layer["probe_p50_us"] = quantile(probes, 0.50)
	r.Layer["probe_p99_us"] = quantile(probes, 0.99)
	r.Layer["probe_share"] = float64(len(probes)) / float64(len(all))
	if rc.Trace != nil {
		countersAfter, err := d.counters()
		if err != nil {
			return nil, err
		}
		delta := func(k string) float64 { return countersAfter[k] - countersBefore[k] }
		lookups := delta("svc.lookup.hit") + delta("svc.lookup.miss") + delta("svc.lookup.refresh")
		r.Layer["coalesced_share"] = ratio(delta("svc.lookup.coalesced"), delta("svc.lookup.miss")+delta("svc.lookup.refresh"))
		r.Layer["probes_per_lookup"] = ratio(delta("svc.probe.done"), lookups)
	}
	r.PeakRSSMB = s.close()
	s = nil
	return r, nil
}

// ratio is a/b, and 0 when nothing was counted in b.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
