package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/harness"
	"repro/internal/telemetry"
)

// legTiming is the wall-clock split of one Start or Resume leg.
type legTiming struct {
	wall  time.Duration // Start/Resume call to return
	setup time.Duration // call to the first Progress callback
	// tasks holds the time between consecutive Progress callbacks after
	// the first. With one worker that is each task's wall time: derive,
	// gate, solve, check and classify.
	tasks []time.Duration
}

// campaignRun is one whole campaign, possibly paused and resumed.
type campaignRun struct {
	res  *harness.Result
	legs []legTiming
	// snap is the telemetry snapshot at campaign end (traced runs only).
	snap telemetry.Snapshot
	// Checkpoint round trip of a paused campaign.
	encode, decode time.Duration
	cpBytes        int
}

func (c campaignRun) wall() time.Duration {
	var d time.Duration
	for _, l := range c.legs {
		d += l.wall
	}
	return d + c.encode + c.decode
}

func (c campaignRun) setup() time.Duration {
	var d time.Duration
	for _, l := range c.legs {
		d += l.setup
	}
	return d
}

// runOpts attaches the optional observers of a campaign.
type runOpts struct {
	telemetry *telemetry.Tracker
	trace     io.Writer
	// pauseAt, when positive, pauses the campaign after that many
	// classified tasks and resumes it from an encoded checkpoint.
	pauseAt int
}

// timedLeg runs one leg and records its set-up time: the wall time until
// the harness reports its first classified task.
func timedLeg(opt harness.RunOptions, run func(harness.RunOptions) (*harness.Outcome, error)) (*harness.Outcome, legTiming, error) {
	var lt legTiming
	start := time.Now() //golint:allow wall-clock — the benchmark measures elapsed time by design; no program output depends on it
	var last time.Time
	opt.Progress = func(done, total int) {
		now := time.Now() //golint:allow wall-clock — benchmark per-task timing
		if last.IsZero() {
			lt.setup = now.Sub(start)
		} else {
			lt.tasks = append(lt.tasks, now.Sub(last))
		}
		last = now
	}
	out, err := run(opt)
	lt.wall = time.Since(start) //golint:allow wall-clock — benchmark leg timing
	return out, lt, err
}

// runCampaign drives one campaign through harness.Start, and when
// o.pauseAt is set, through EncodeCheckpoint, DecodeCheckpoint and
// harness.Resume.
func runCampaign(cc harness.CampaignConfig, o runOpts) (campaignRun, error) {
	var cr campaignRun
	opt := harness.RunOptions{Telemetry: o.telemetry, Trace: o.trace, StopAfter: o.pauseAt}
	out, lt, err := timedLeg(opt, func(opt harness.RunOptions) (*harness.Outcome, error) { return harness.Start(cc, opt) })
	if err != nil {
		return cr, err
	}
	cr.legs = append(cr.legs, lt)
	if o.pauseAt > 0 {
		if !out.Paused {
			return cr, fmt.Errorf("campaign did not pause at task %d", o.pauseAt)
		}
		t0 := time.Now() //golint:allow wall-clock — checkpoint codec timing
		doc, err := harness.EncodeCheckpoint(out.Checkpoint)
		cr.encode = time.Since(t0) //golint:allow wall-clock — checkpoint codec timing
		if err != nil {
			return cr, err
		}
		cr.cpBytes = len(doc)
		t0 = time.Now() //golint:allow wall-clock — checkpoint codec timing
		cp, err := harness.DecodeCheckpoint(doc)
		cr.decode = time.Since(t0) //golint:allow wall-clock — checkpoint codec timing
		if err != nil {
			return cr, err
		}
		opt.StopAfter = 0
		if opt.Telemetry != nil {
			// Resume merges the checkpoint's counts into the tracker it is
			// given; the paused leg's tracker already holds them.
			opt.Telemetry = telemetry.NewTracker()
		}
		out, lt, err = timedLeg(opt, func(opt harness.RunOptions) (*harness.Outcome, error) { return harness.Resume(cp, opt) })
		if err != nil {
			return cr, err
		}
		cr.legs = append(cr.legs, lt)
	}
	if out.Paused {
		return cr, fmt.Errorf("campaign paused without a pause request")
	}
	cr.res = out.Result
	cr.snap = out.Telemetry
	return cr, nil
}

// checkResult applies the output checks every campaign must pass.
// Reference disagreements are not among them: they are counted as
// failed tasks (failuresOf) and reported by runRep, so a run shows them
// instead of stopping at the first.
func checkResult(name string, r *harness.Result) error {
	if r.Quarantined != 0 {
		return fmt.Errorf("%s: %d quarantined tasks", name, r.Quarantined)
	}
	if r.Tests == 0 {
		return fmt.Errorf("%s: no tests ran", name)
	}
	return nil
}

// checkReplay replays every reproducer bundle of a campaign and requires
// an exact reproduction.
func checkReplay(name string, r *harness.Result) (time.Duration, error) {
	var total time.Duration
	for _, dir := range r.Artifacts {
		t0 := time.Now() //golint:allow wall-clock — bundle replay timing
		rep, err := harness.Replay(dir)
		total += time.Since(t0) //golint:allow wall-clock — bundle replay timing
		if err != nil {
			return total, fmt.Errorf("%s: replay %s: %w", name, filepath.Base(dir), err)
		}
		if !rep.Exact() {
			return total, fmt.Errorf("%s: bundle %s does not replay exactly: %+v", name, filepath.Base(dir), rep)
		}
	}
	return total, nil
}

// passStats is one pass over a list of campaigns.
type passStats struct {
	runs []campaignRun
	// cpu is the process CPU time each campaign took.
	cpu []time.Duration
	// Totals over the campaigns.
	tests, tasks, failures, bugs int
	wall, busy                   time.Duration // busy = wall net of set-up
	// setups is the set-up time of every campaign leg.
	setups []time.Duration
	// lat holds the per-task wall times of every campaign.
	lat []time.Duration
	// fp hashes the campaigns' fingerprints in order.
	fp string
	// replay is the total bundle replay time (artifact workloads only).
	replay time.Duration
	labels []string // per campaign, for messages
	dirs   []string // output directories of artifact workloads
}

func (s passStats) cpuTotal() time.Duration {
	var t time.Duration
	for _, c := range s.cpu {
		t += c
	}
	return t
}

// add folds another pass's campaigns and totals into s.
func (s *passStats) add(o passStats) {
	s.runs = append(s.runs, o.runs...)
	s.cpu = append(s.cpu, o.cpu...)
	s.setups = append(s.setups, o.setups...)
	s.lat = append(s.lat, o.lat...)
	s.labels = append(s.labels, o.labels...)
	s.tests += o.tests
	s.tasks += o.tasks
	s.failures += o.failures
	s.bugs += o.bugs
	s.wall += o.wall
	s.busy += o.busy
	s.replay += o.replay
}

// testsPerSec is the pass's throughput: tests over campaign wall
// time net of set-up.
func (s passStats) testsPerSec() float64 {
	return float64(s.tests) / s.busy.Seconds()
}

// failuresOf counts the tasks the pipeline itself failed on: gate
// rejections, reference-solver disagreements with the constructed
// oracle, quarantines, and backend faults or garbled verdicts.
func failuresOf(r *harness.Result) int {
	n := r.InvalidInputs + r.ReferenceDisagreements + r.Quarantined
	for _, b := range r.Backends {
		n += b.Faults + b.Garbled
	}
	return n
}

// runPass runs the campaigns once each and checks their outputs,
// artifact bundles included.
func runPass(w workload, cs []campaign, workdir string, opts func(c campaign) runOpts) (passStats, error) {
	s, err := runRep(w, cs, workdir, opts)
	defer s.cleanup()
	if err != nil {
		return s, err
	}
	return s, s.checkArtifacts()
}

// runRep runs the campaigns once each and checks their results; the
// caller checks and removes the artifact directories (checkArtifacts,
// cleanup). workdir is the directory under which artifact workloads
// create one output directory per campaign. opts, when set, attaches
// observers to each campaign.
func runRep(w workload, cs []campaign, workdir string, opts func(c campaign) runOpts) (passStats, error) {
	var s passStats
	h := sha256.New()
	for _, c := range cs {
		o := runOpts{}
		if opts != nil {
			o = opts(c)
		}
		var dir string
		var events *os.File
		if w.artifacts {
			var err error
			if dir, err = os.MkdirTemp(workdir, w.name+"-"); err != nil {
				return s, err
			}
			s.dirs = append(s.dirs, dir)
			if events, err = os.Create(filepath.Join(dir, "events.jsonl")); err != nil {
				return s, err
			}
			if o.trace != nil {
				o.trace = io.MultiWriter(o.trace, events)
			} else {
				o.trace = events
			}
		}
		switch {
		case o.pauseAt < 0:
			o.pauseAt = 0
		case o.pauseAt == 0 && w.resume:
			o.pauseAt = w.tasks() / 2
		}
		cpu0 := processCPU()
		cr, err := runCampaign(w.config(c.sut, c.seed, artifactDir(dir)), o)
		s.cpu = append(s.cpu, processCPU()-cpu0)
		if events != nil {
			if cerr := events.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return s, fmt.Errorf("%s: %w", c.label, err)
		}
		if err := checkResult(c.label, cr.res); err != nil {
			return s, fmt.Errorf("%w (reproduce: %s)", err, w.command(c))
		}
		if n := cr.res.ReferenceDisagreements; n != 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %d reference disagreements, counted as failed tasks (reproduce: %s)\n", c.label, n, w.command(c))
		}
		h.Write(cr.res.Fingerprint())
		s.runs = append(s.runs, cr)
		s.labels = append(s.labels, c.label)
		s.tests += cr.res.Tests
		s.tasks += w.tasks()
		s.failures += failuresOf(cr.res)
		s.bugs += len(cr.res.Bugs) + len(cr.res.BackendFindings)
		s.wall += cr.wall()
		s.busy += cr.wall() - cr.setup()
		for _, l := range cr.legs {
			s.setups = append(s.setups, l.setup)
			s.lat = append(s.lat, l.tasks...)
		}
	}
	s.fp = hex.EncodeToString(h.Sum(nil))
	return s, nil
}

// checkArtifacts replays every reproducer bundle the campaigns wrote.
func (s *passStats) checkArtifacts() error {
	for i, cr := range s.runs {
		d, err := checkReplay(s.labels[i], cr.res)
		s.replay += d
		if err != nil {
			return err
		}
	}
	return nil
}

// cleanup removes the campaigns' output directories.
func (s passStats) cleanup() {
	for _, d := range s.dirs {
		os.RemoveAll(d)
	}
}

func artifactDir(dir string) string {
	if dir == "" {
		return ""
	}
	return filepath.Join(dir, "bundles")
}
