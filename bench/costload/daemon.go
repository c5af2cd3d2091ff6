package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

const (
	readyTimeout = 30 * time.Second
	drainTimeout = 15 * time.Second
	// clockTicksPerSecond is USER_HZ, the unit of utime/stime in
	// /proc/<pid>/stat: 100 on every Linux architecture Go runs on.
	clockTicksPerSecond = 100
)

// benchDir finds the benchmark module's directory (the one holding its
// go.mod) by walking up from the working directory. `go run -C bench` starts
// the program there; `go test` starts it one level below.
func benchDir() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if mod, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			bytes.Contains(mod, []byte("module costest/bench\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("costload: run from inside the bench module (go run -C bench ./costload)")
		}
		dir = parent
	}
}

// buildDaemon compiles cmd/costestd from the checkout's source into
// bench/out/ and returns the binary's path. Build time is outside setup_s.
func buildDaemon(ctx context.Context, bdir string) (string, error) {
	outDir := filepath.Join(bdir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(outDir, "costestd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, daemonPkg)
	cmd.Dir = bdir
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build %s: %w\n%s", daemonPkg, err, out)
	}
	return bin, nil
}

// daemon is one running costestd.
type daemon struct {
	role    string
	url     string
	flags   []string
	cmd     *exec.Cmd
	logPath string
	exited  chan struct{} // closed once cmd.Wait has returned
	waitErr error
}

// fleet tracks every daemon the process has started so that none outlives
// it: main kills the fleet on return, panic and signal, and Pdeathsig covers
// the paths that skip deferred calls.
var fleet struct {
	sync.Mutex
	live map[*daemon]bool
}

func killFleet() {
	fleet.Lock()
	defer fleet.Unlock()
	for d := range fleet.live {
		d.cmd.Process.Kill()
		<-d.exited
	}
	fleet.live = nil
}

// freeLoopbackAddrs reserves n distinct ephemeral loopback ports by binding
// them all and then releasing them; the daemons rebind them a moment later.
func freeLoopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// startDaemon spawns costestd on the given loopback address with the given
// extra flags and returns once it has been started (not yet ready). Its
// stderr goes to bench/out/<tag>-<role>.stderr.log.
func startDaemon(bin, outDir, tag, role, addr string, extra ...string) (*daemon, error) {
	logPath := filepath.Join(outDir, fmt.Sprintf("%s-%s.stderr.log", tag, role))
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	d := &daemon{
		role:    role,
		url:     "http://" + addr,
		flags:   append([]string{flagAddr, addr}, extra...),
		logPath: logPath,
		exited:  make(chan struct{}),
	}
	d.cmd = exec.Command(bin, d.flags...)
	d.cmd.Stdout = logf
	d.cmd.Stderr = logf
	d.cmd.SysProcAttr = childProcAttr()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	fleet.Lock()
	if fleet.live == nil {
		fleet.live = make(map[*daemon]bool)
	}
	fleet.live[d] = true
	fleet.Unlock()
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) stderrLog() string {
	b, _ := os.ReadFile(d.logPath)
	return string(b)
}

// waitReady polls /readyz until it answers 200, the daemon dies, or the
// timeout passes.
func (d *daemon) waitReady(ctx context.Context, client *http.Client) error {
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("%s daemon exited during start-up: %v\n%s", d.role, d.waitErr, d.stderrLog())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := client.Get(d.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s daemon not ready after %v\n%s", d.role, readyTimeout, d.stderrLog())
}

// stop sends SIGTERM and requires the graceful-drain contract: exit status 0
// and the "drained clean" line on stderr.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(drainTimeout):
		d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("%s daemon did not drain within %v\n%s", d.role, drainTimeout, d.stderrLog())
	}
	fleet.Lock()
	delete(fleet.live, d)
	fleet.Unlock()
	if d.waitErr != nil {
		return fmt.Errorf("%s daemon exit after SIGTERM: %v\n%s", d.role, d.waitErr, d.stderrLog())
	}
	if log := d.stderrLog(); !strings.Contains(log, "drained clean") {
		return fmt.Errorf("%s daemon exited 0 without the \"drained clean\" line\n%s", d.role, log)
	}
	return nil
}

// cpuTicks returns the daemon's user+system CPU time in clock ticks.
func (d *daemon) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.pid()))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from the
	// closing parenthesis. utime and stime are fields 14 and 15.
	rest := b[bytes.LastIndexByte(b, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", d.pid())
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return utime + stime, nil
}

// peakRSSKB returns the daemon's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSKB() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.pid())
}

// statsz is the part of the daemon's /statsz body the benchmark reads.
type statsz struct {
	Version   uint64 `json:"version"`
	Scheduler struct {
		Rejected       uint64 `json:"rejected"`
		Served         uint64 `json:"served"`
		Expired        uint64 `json:"expired"`
		Failed         uint64 `json:"failed"`
		Batches        uint64 `json:"batches"`
		QueueHighWater int    `json:"queue_high_water"`
	} `json:"scheduler"`
	Pool struct {
		Entries   int     `json:"entries"`
		HitRate   float64 `json:"hit_rate"`
		StaleRate float64 `json:"stale_rate"`
	} `json:"pool"`
	Supervisor struct {
		Publishes uint64 `json:"publishes"`
	} `json:"supervisor"`
	Replication struct {
		Generation uint64 `json:"generation"`
	} `json:"replication"`
}

func (d *daemon) statsz(client *http.Client) (statsz, error) {
	var st statsz
	resp, err := client.Get(d.url + "/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("%s /statsz: %s", d.role, resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// cluster is a workload's topology: the daemon that receives the load and,
// on replica_churn, the retraining primary it follows.
type cluster struct {
	target  *daemon
	primary *daemon // nil except on replica_churn
}

func (c *cluster) daemons() []*daemon {
	if c.primary != nil {
		return []*daemon{c.primary, c.target}
	}
	return []*daemon{c.target}
}

// daemonFlags describes the cluster's command lines for the run header.
func (c *cluster) daemonFlags() string {
	var parts []string
	for _, d := range c.daemons() {
		parts = append(parts, d.role+": "+strings.Join(d.flags, " "))
	}
	return strings.Join(parts, "; ")
}

// startCluster starts the workload's daemons at shipped defaults and waits
// for every /readyz. On replica_churn the load target is a -peers member
// following a primary that retrains and publishes every 250 ms; the primary
// is up before the follower starts, as a deployment would order them, so the
// follower's first dial succeeds and its jittered reconnect back-off
// (100 ms–2 s) stays out of setup_s.
func startCluster(ctx context.Context, client *http.Client, bin, outDir, tag, workload string) (*cluster, error) {
	c := &cluster{}
	addrs, err := freeLoopbackAddrs(3)
	if err != nil {
		return nil, err
	}
	start := func(role, addr string, extra ...string) (*daemon, error) {
		d, err := startDaemon(bin, outDir, tag, role, addr, extra...)
		if err == nil {
			err = d.waitReady(ctx, client)
		}
		if err != nil {
			killFleet()
		}
		return d, err
	}
	if workload != replicaChurn {
		c.target, err = start("daemon", addrs[0])
		return c, err
	}
	if c.primary, err = start("primary", addrs[0], flagRetrain, "250ms", flagReplicateListen, addrs[2]); err != nil {
		return nil, err
	}
	c.target, err = start("follower", addrs[1], flagPeers, addrs[2])
	return c, err
}

// stop drains the load target first, then the primary. The client's idle
// connections go first: http.Server.Shutdown waits up to five seconds for a
// connection the transport dialled but never used.
func (c *cluster) stop(client *http.Client) error {
	client.CloseIdleConnections()
	err := c.target.stop()
	if c.primary != nil {
		err = errors.Join(err, c.primary.stop())
	}
	return err
}
