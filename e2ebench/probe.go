package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on changes speed on its own: a fixed
// computation takes anywhere from 30 to 60 ms from one second to the
// next, in CPU time as much as in wall time, and the level drifts over
// minutes. Left raw, that drift moved the median ack of ten consecutive
// runs of identical work by up to 35%. The end-to-end timings are
// therefore scaled to a reference host speed, measured where each timing
// is taken: a probe — a fixed allocation- and map-heavy computation —
// timed in its own thread's CPU time and sampled all through the phase
// the timing covers.
//
// The probe must not see the service's own load: a change that made the
// service cheaper would then make the probe faster too, and the scaling
// would cancel part of the change. So the probe runs in a child process
// of its own (this binary with probeArg), whose garbage collector sees
// only the probe's allocations, and every sample is taken while the
// service is idle — before each launch, before each kill, and in the
// measured phase inside an idle window, in which the clients hold their
// next request until the sample is done.
//
// referenceProbeUS is the probe's median on the 2-core host the benchmark
// was calibrated on; a timing t measured while the probe took p µs is
// reported as t × referenceProbeUS / p.
const referenceProbeUS = 150.0

// measuredProbePeriod spaces the idle windows of the measured phase. A
// window lasts windowProbes+1 probes (about 150 µs each) plus the wait for
// the requests in flight; the clients' time in it is left out of
// stmts_per_s.
const measuredProbePeriod = 100 * time.Millisecond

// windowProbes and idleProbes are how many samples a burst keeps in an
// idle window of the measured phase and at each idle point of the set-up
// and recovery phases.
const (
	windowProbes = 2
	idleProbes   = 10
)

// probeArg, as a binary's only argument, makes it the probe child.
const probeArg = "--probe-child"

// probeSink keeps the probe's result alive.
var probeSink int

// probeWork is the fixed computation: map inserts, string building and
// a sort, the same kinds of work the tuner's statement path does.
func probeWork() int {
	m := make(map[string]int, 64)
	keys := make([]string, 0, 400)
	for i := 0; i < 400; i++ {
		k := "k" + strconv.Itoa(i*7919%1000)
		m[k] += i
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return len(m) + len(keys[0])
}

// threadCPU is the calling thread's CPU time, read from
// CLOCK_THREAD_CPUTIME_ID (thread rusage is too coarse for one probe).
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0) //nolint:errcheck // cannot fail for the calling thread
	return time.Duration(ts.Nano())
}

// probeOnce times one probe in thread CPU time, in µs. The caller must
// hold its OS thread.
func probeOnce() float64 {
	start := threadCPU()
	probeSink += probeWork()
	return float64((threadCPU() - start).Nanoseconds()) / 1e3
}

// serveProbes is the probe child: for every byte read from r it takes one
// sample and writes it to w as a line, in µs. The collector only runs
// between samples, after the reply, so every sample starts from the same
// empty heap and none pays for a collection.
func serveProbes(r io.Reader, w io.Writer) error {
	debug.SetGCPercent(-1)
	runtime.LockOSThread()
	br := bufio.NewReader(r)
	for {
		if _, err := br.ReadByte(); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		if _, err := fmt.Fprintf(w, "%g\n", probeOnce()); err != nil {
			return err
		}
		runtime.GC()
	}
}

// prober is the parent's end of the probe child.
type prober struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// startProber starts the probe child. Like the daemons it is killed if
// the benchmark dies first.
func startProber() (*prober, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, probeArg)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the probe: %w", err)
	}
	return &prober{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// sample takes one probe sample, in µs.
func (p *prober) sample() (float64, error) {
	if _, err := p.in.Write([]byte{'p'}); err != nil {
		return 0, fmt.Errorf("probe: %w", err)
	}
	line, err := p.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("probe: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(line), 64)
}

// burst takes n samples back to back, after one more that it drops: that
// first run refills the caches the service used since the last burst, so
// the samples time the host, not what the service left in its caches.
// The caller makes sure the service is idle.
func (p *prober) burst(n int) ([]float64, error) {
	out := make([]float64, 0, n+1)
	for i := 0; i <= n; i++ {
		v, err := p.sample()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out[1:], nil
}

// close ends the child and waits for it to exit.
func (p *prober) close() {
	p.in.Close()
	p.cmd.Wait() //nolint:errcheck // the samples already read are all that counts
}

// speedSampler takes a sample every period, each in an idle window: it
// holds idle for writing, which the clients hold for reading around every
// request, so no request is in flight while the probe runs.
type speedSampler struct {
	p       *prober
	stop    chan struct{}
	done    chan struct{}
	samples []float64
	err     error
}

func startSampler(p *prober, idle *sync.RWMutex, period time.Duration) *speedSampler {
	s := &speedSampler{p: p, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			idle.Lock()
			vs, err := p.burst(windowProbes)
			idle.Unlock()
			if err != nil {
				s.err = err
				return
			}
			s.samples = append(s.samples, vs...)
		}
	}()
	return s
}

// finish stops the sampler and returns its median sample, in µs. A phase
// shorter than one period gets one sample at its end, when the clients
// are done.
func (s *speedSampler) finish() (float64, error) {
	close(s.stop)
	<-s.done
	if s.err == nil && len(s.samples) == 0 {
		s.samples, s.err = s.p.burst(windowProbes)
	}
	return median(s.samples), s.err
}

// atReference scales a timing taken while the probe read probeUS to the
// reference host speed.
func atReference(t, probeUS float64) float64 {
	return t * referenceProbeUS / probeUS
}
