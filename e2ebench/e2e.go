package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// outcome is what one run reports: metric values by name plus the
// evidence printed beside them.
type outcome struct {
	metrics map[string]float64
	info    map[string]any
	tally   tally
	// totalWork is the run's final total work, checked against the
	// reference ledger across runs of the same inputs.
	totalWork float64
}

// runEndToEnd drives the workload against real daemons and checks every
// correctness gate. Tracing is off: beside the clients' clocks only the
// host-speed probe runs, and only while the service is idle (probe.go).
func runEndToEnd(in *inputs, bins binaries, dir string) (*outcome, error) {
	w := in.W
	hc := &http.Client{Timeout: 60 * time.Second}
	pr, err := startProber()
	if err != nil {
		return nil, err
	}
	defer pr.close()
	var setups, setupProbes []float64
	var fl *fleet
	for i := 0; i < setupRepeats; i++ {
		// No daemon runs between launches.
		b, err := pr.burst(idleProbes)
		if err != nil {
			return nil, err
		}
		setupProbes = append(setupProbes, b...)
		ldir := filepath.Join(dir, fmt.Sprintf("launch%d", i))
		f, d, err := launchFleet(w, bins, ldir, in, hc)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, d.Seconds())
		if i == setupRepeats-1 {
			fl = f
			break
		}
		f.stop()
		if err := os.RemoveAll(ldir); err != nil {
			return nil, err
		}
	}
	defer func() { fl.kill() }()

	rec := &recorder{}
	clients := make([]*client, len(in.Sessions))
	for i, s := range in.Sessions {
		clients[i] = &client{w: w, in: s, base: fl.clientURL, metricsURL: fl.primary.url, hc: newHTTPClient(), rec: rec}
	}
	if err := driveAll(clients, 0, in.Warmup); err != nil {
		return nil, fmt.Errorf("warmup: %w", err)
	}
	for _, c := range clients {
		c.measuring = true
	}
	sampler := startSampler(pr, &rec.idle, measuredProbePeriod)
	err = driveAll(clients, in.Warmup, in.total())
	probe, perr := sampler.finish()
	if err == nil {
		err = perr
	}
	if err != nil {
		return nil, err
	}
	// Each session's rate over its own wall time less its waits for the
	// probe's idle windows, summed: a session that finishes first does not
	// dilute the others' rates.
	rate, wall, paused := 0.0, time.Duration(0), time.Duration(0)
	for _, c := range clients {
		rate += float64(in.Measured) / (c.elapsed - c.paused).Seconds()
		wall = max(wall, c.elapsed)
		paused = max(paused, c.paused)
	}
	if rec.tally.failed > 0 {
		return nil, fmt.Errorf("gate: %d of %d requests failed", rec.tally.failed, rec.tally.attempted)
	}

	final := make(map[string]sessionStatus, len(in.Sessions))
	totalWork := 0.0
	for _, s := range in.Sessions {
		var st sessionStatus
		if err := getJSON(hc, fl.primary.url+"/sessions/"+s.Name+"/status", &st); err != nil {
			return nil, err
		}
		if st.Statements != in.total() {
			return nil, fmt.Errorf("gate: session %s reports %d statements, %d were acked", s.Name, st.Statements, in.total())
		}
		final[s.Name] = st
		totalWork += st.TotalWork
	}
	if w.replicated() {
		if err := checkStandby(hc, fl, in, final); err != nil {
			return nil, err
		}
	}
	rss := 0.0
	for _, p := range fl.procs() {
		mb, err := p.peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss += mb
	}

	// Recovery: the router goes first, so its health loop cannot promote
	// the standby while the primary is down on purpose.
	fl.router.stop()
	fl.router = nil
	// The restarts are spaced out so that their median spans several of
	// the host's second-scale speed swings, not one.
	var recoveries, recoveryProbes []float64
	for r := 0; r < recoveryRepeats; r++ {
		if r > 0 {
			time.Sleep(recoveryGap)
		}
		// The service is idle before each kill.
		b, err := pr.burst(idleProbes)
		if err != nil {
			return nil, err
		}
		recoveryProbes = append(recoveryProbes, b...)
		d, err := recoverPrimary(hc, fl, in, final)
		if err != nil {
			return nil, fmt.Errorf("recovery %d: %w", r, err)
		}
		recoveries = append(recoveries, d.Seconds())
	}
	setupUS, recoveryUS := median(setupProbes), median(recoveryProbes)

	sql := &rec.lat[kindSQL]
	feedback := dist{vals: append(append([]float64(nil), rec.lat[kindVote].vals...), rec.lat[kindAccept].vals...)}
	t := sql.tail()
	raw := map[string]float64{
		"ack_p50_us":          sql.median(),
		"ack_tail_us":         t.Value,
		"stmts_per_s":         rate,
		"dba_read_p50_us":     rec.lat[kindRead].median(),
		"feedback_ack_p50_us": feedback.median(),
	}
	info := map[string]any{
		"ack_tail":               t,
		"acks":                   sql.n(),
		"dba_reads":              rec.lat[kindRead].n(),
		"scrapes":                rec.lat[kindScrape].n(),
		"feedback_acks":          feedback.n(),
		"failed_share":           rec.tally.failedShare(),
		"measured_wall_s":        wall.Seconds(),
		"measured_paused_s":      paused.Seconds(),
		"probe_us":               probe,
		"probe_setup_us":         setupUS,
		"probe_recovery_us":      recoveryUS,
		"raw_setup_s":            setups,
		"raw_recovery_s":         recoveries,
		"statements_per_session": in.total(),
	}
	m := map[string]float64{
		"stmts_per_s": rate * probe / referenceProbeUS,
		"total_work":  totalWork,
		"recovery_s":  atReference(median(recoveries), recoveryUS),
		"peak_rss_mb": rss,
		"setup_s":     atReference(median(setups), setupUS),
	}
	for name, v := range raw {
		info["raw_"+name] = v
		if name != "stmts_per_s" {
			m[name] = atReference(v, probe)
		}
	}
	return &outcome{
		metrics:   m,
		info:      info,
		tally:     rec.tally,
		totalWork: totalWork,
	}, nil
}

// checkStandby gates the replicated topology: the follower holds exactly
// the primary's statements and total work, and reports no lag.
func checkStandby(hc *http.Client, fl *fleet, in *inputs, final map[string]sessionStatus) error {
	for _, s := range in.Sessions {
		p := final[s.Name]
		if p.Replication == nil || p.Replication.Lag != 0 {
			return fmt.Errorf("gate: primary session %s replication lag is not 0: %+v", s.Name, p.Replication)
		}
		var f sessionStatus
		if err := getJSON(hc, fl.follower.url+"/sessions/"+s.Name+"/status", &f); err != nil {
			return err
		}
		if f.Statements != p.Statements || math.Float64bits(f.TotalWork) != math.Float64bits(p.TotalWork) {
			return fmt.Errorf("gate: standby session %s has %d statements / total work %v, primary %d / %v",
				s.Name, f.Statements, f.TotalWork, p.Statements, p.TotalWork)
		}
	}
	var health struct {
		LagRecords *uint64 `json:"lag_records"`
	}
	if err := getJSON(hc, fl.follower.url+"/healthz", &health); err != nil {
		return err
	}
	if health.LagRecords == nil || *health.LagRecords != 0 {
		return fmt.Errorf("gate: standby reports lag %v", health.LagRecords)
	}
	return nil
}

// recoverPrimary kills the primary with its WAL tail non-empty, restarts
// it on the same data directory, and times until every session answers
// with the acked statement count and a bit-identical total work.
func recoverPrimary(hc *http.Client, fl *fleet, in *inputs, final map[string]sessionStatus) (time.Duration, error) {
	if in.total()%in.W.Knobs.CheckpointEvery == 0 {
		return 0, fmt.Errorf("the WAL tail is empty at %d statements", in.total())
	}
	fl.primary.kill()
	start := time.Now()
	p, err := fl.primary.restart()
	if err != nil {
		return 0, err
	}
	fl.primary = p
	deadline := start.Add(120 * time.Second)
	for _, s := range in.Sessions {
		var st sessionStatus
		for {
			err := getJSON(hc, p.url+"/sessions/"+s.Name+"/status", &st)
			if err == nil {
				break
			}
			select {
			case <-p.done:
				return 0, fmt.Errorf("restarted primary exited (see %s)", p.log)
			default:
			}
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("session %s not recovered: %w", s.Name, err)
			}
			time.Sleep(500 * time.Microsecond)
		}
		want := final[s.Name]
		if st.Statements != want.Statements || math.Float64bits(st.TotalWork) != math.Float64bits(want.TotalWork) {
			return 0, fmt.Errorf("gate: recovered session %s has %d statements / total work %v, before the kill %d / %v",
				s.Name, st.Statements, st.TotalWork, want.Statements, want.TotalWork)
		}
	}
	return time.Since(start), nil
}
