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
	"syscall"
	"time"
)

// binaries are the daemon executables built from the checkout.
type binaries struct {
	serve, router string
}

// proc is one daemon child process.
type proc struct {
	bin  string
	args []string
	log  string
	url  string
	cmd  *exec.Cmd
	done chan struct{}
}

// startProc launches a daemon. The child gets SIGKILL if the benchmark
// dies first, so no daemon outlives a run.
func startProc(bin string, args []string, logPath, url string) (*proc, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &proc{bin: bin, args: args, log: logPath, url: url, cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // exit status of a killed daemon is expected
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

// kill sends SIGKILL and waits for the process to be reaped.
func (p *proc) kill() {
	if p == nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGKILL) //nolint:errcheck // already gone is fine
	<-p.done
}

// stop asks for a graceful shutdown and falls back to SIGKILL.
func (p *proc) stop() {
	if p == nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		p.kill()
	}
}

// restart launches the same daemon again (same flags, same data dir).
func (p *proc) restart() (*proc, error) {
	return startProc(p.bin, p.args, p.log, p.url)
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func (p *proc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// freeAddr reserves a loopback port long enough to learn its number.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// waitReady polls url until it answers 200 or the deadline passes.
func waitReady(hc *http.Client, url string, p *proc) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := hc.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before serving (see %s)", filepath.Base(p.bin), p.log)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 30s: %v", url, err)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// fleet is the running topology of one workload.
type fleet struct {
	primary, follower, router *proc
	// clientURL is where the workload's clients send requests: the router
	// when replicated, the primary otherwise.
	clientURL string
}

// serveArgs are the flags a workload's wfit-serve is started with.
func serveArgs(w Workload, addr, dataDir, followerURL string) []string {
	args := []string{"-addr", addr, "-data", dataDir}
	args = append(args, w.ServeFlags...)
	if followerURL != "" {
		args = append(args, "-standby", followerURL)
	}
	return args
}

// launchFleet starts the workload's daemons on fresh data directories
// under dir and creates every session through the client path. The
// returned duration runs from the first launch until every session
// answers a status read: the workload's set-up time.
func launchFleet(w Workload, bins binaries, dir string, in *inputs, hc *http.Client) (*fleet, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	addrs := make([]string, 3)
	for i := range addrs {
		a, err := freeAddr()
		if err != nil {
			return nil, 0, err
		}
		addrs[i] = a
	}
	f := &fleet{}
	start := time.Now()
	var err error
	followerURL := ""
	if w.replicated() {
		followerURL = "http://" + addrs[1]
		args := append([]string{"-addr", addrs[1], "-data", filepath.Join(dir, "follower")}, w.FollowerFlags...)
		if f.follower, err = startProc(bins.serve, args, filepath.Join(dir, "follower.log"), followerURL); err != nil {
			return nil, 0, err
		}
	}
	primaryURL := "http://" + addrs[0]
	f.primary, err = startProc(bins.serve, serveArgs(w, addrs[0], filepath.Join(dir, "primary"), followerURL), filepath.Join(dir, "primary.log"), primaryURL)
	if err != nil {
		f.kill()
		return nil, 0, err
	}
	f.clientURL = primaryURL
	if w.replicated() {
		routerURL := "http://" + addrs[2]
		args := []string{"-addr", addrs[2], "-shard", primaryURL + "," + followerURL}
		if f.router, err = startProc(bins.router, args, filepath.Join(dir, "router.log"), routerURL); err != nil {
			f.kill()
			return nil, 0, err
		}
		f.clientURL = routerURL
	}
	for _, p := range f.procs() {
		if err := waitReady(hc, p.url+"/healthz", p); err != nil {
			f.kill()
			return nil, 0, err
		}
	}
	if err := createSessions(hc, f.clientURL, w, in); err != nil {
		f.kill()
		return nil, 0, fmt.Errorf("creating sessions: %w", err)
	}
	return f, time.Since(start), nil
}

func (f *fleet) procs() []*proc {
	var out []*proc
	for _, p := range []*proc{f.follower, f.primary, f.router} {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// kill stops every daemon of the fleet immediately.
func (f *fleet) kill() {
	for _, p := range f.procs() {
		p.kill()
	}
}

// stop shuts every daemon down gracefully, router first.
func (f *fleet) stop() {
	f.router.stop()
	f.primary.stop()
	f.follower.stop()
}
