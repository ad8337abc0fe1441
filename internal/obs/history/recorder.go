package history

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"vodcast/internal/obs"
)

// This file implements the flight recorder: the component that turns "an
// alert fired" into a diagnostic bundle on disk, captured at the moment the
// process still holds the evidence. A bundle is one timestamped directory
// containing the recent metric history, the span ring, a status snapshot
// (which carries the alert table), and goroutine + heap profiles —
// everything a postmortem needs to answer "what led up to this" without the
// operator having been watching.
//
// Bundles are bounded twice over: a 5-minute cooldown rate-limits
// alert-triggered captures (a flapping rule cannot fill the disk), and
// retention keeps only the last 8 bundle directories, pruning the oldest on
// every write.

// cooldown rate-limits Trigger: captures closer together than this are
// skipped.
const cooldown = 5 * time.Minute

// keep bounds retained bundle directories; older ones are pruned.
const keep = 8

// RecorderConfig parameterizes a Recorder. Dir is required. The snapshot
// sources (Store, Status, Spans, Conns) are each optional — a nil source
// simply omits that file from bundles.
type RecorderConfig struct {
	// Dir is the directory bundles are written under; created if absent.
	Dir string
	// Store supplies the bundled metric history (history.jsonl): what each
	// series' raw ring retains, the last 360 scrapes.
	Store *Store
	// Status supplies a rendered status snapshot (status.json), normally
	// the same bytes /statusz serves.
	Status func() ([]byte, error)
	// Spans supplies the recent span ring (spans.jsonl).
	Spans func() []obs.SpanRecord
	// Conns supplies a rendered per-connection transport telemetry snapshot
	// (conns.json), normally the same bytes /connz serves — the evidence a
	// stall-attribution postmortem needs.
	Conns func() ([]byte, error)
	// Clock stamps bundles and drives the cooldown; nil selects time.Now.
	Clock func() time.Time
}

// Recorder captures diagnostic bundles. All methods are safe for concurrent
// use.
type Recorder struct {
	cfg RecorderConfig

	mu       sync.Mutex
	lastAt   time.Time
	haveLast bool
	captured uint64
	skipped  uint64
}

// NewRecorder returns a recorder writing under cfg.Dir, creating the
// directory if needed.
func NewRecorder(cfg RecorderConfig) (*Recorder, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("history: RecorderConfig.Dir is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("history: create bundle dir: %w", err)
	}
	return &Recorder{cfg: cfg}, nil
}

// Trigger captures a bundle unless one was captured within the cooldown
// window. It returns the bundle directory and true on capture, or "" and
// false when rate-limited. Write errors are
// reported through the returned path being empty with ok true never — a
// failed capture returns ok false so callers need no error branch on the
// alert path.
func (r *Recorder) Trigger(reason string) (string, bool) {
	now := r.cfg.Clock()
	r.mu.Lock()
	if r.haveLast && now.Sub(r.lastAt) < cooldown {
		r.skipped++
		r.mu.Unlock()
		return "", false
	}
	r.lastAt = now
	r.haveLast = true
	r.mu.Unlock()
	dir, err := r.capture(reason, now)
	if err != nil {
		return "", false
	}
	return dir, true
}

// Force captures a bundle unconditionally — the /debug/flightrecord and
// SIGQUIT paths, where an operator asked explicitly. It still arms the
// cooldown so a forced capture quiets subsequent alert triggers.
func (r *Recorder) Force(reason string) (string, error) {
	now := r.cfg.Clock()
	r.mu.Lock()
	r.lastAt = now
	r.haveLast = true
	r.mu.Unlock()
	return r.capture(reason, now)
}

// bundleMeta is the bundle's self-description, written as meta.json.
type bundleMeta struct {
	Reason     string   `json:"reason"`
	Unix       float64  `json:"unix"`
	Time       string   `json:"time"`
	GoVersion  string   `json:"go_version,omitempty"`
	StoreStats *Stats   `json:"store,omitempty"`
	Files      []string `json:"files"`
}

// historyLine is one series' retained points, one JSON line per series in
// history.jsonl.
type historyLine struct {
	Series string  `json:"series"`
	Points []Point `json:"points"`
}

// capture writes one bundle directory and prunes retention. The directory
// is written under a temporary name and renamed into place so readers never
// see a half-written bundle.
func (r *Recorder) capture(reason string, now time.Time) (string, error) {
	name := fmt.Sprintf("bundle-%s-%s", now.UTC().Format("20060102T150405.000"), sanitizeReason(reason))
	final := filepath.Join(r.cfg.Dir, name)
	tmp := final + ".tmp"
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp) // no-op after successful rename

	var files []string
	write := func(file string, gen func(*os.File) error) error {
		f, err := os.Create(filepath.Join(tmp, file))
		if err != nil {
			return err
		}
		if err := gen(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		files = append(files, file)
		return nil
	}

	// Metric history: one JSONL line per retained series, holding what its
	// raw ring retains.
	if st := r.cfg.Store; st != nil {
		if err := write("history.jsonl", func(f *os.File) error {
			enc := json.NewEncoder(f)
			for _, series := range st.Series() {
				line := historyLine{Series: series, Points: st.rawPoints(series)}
				if err := enc.Encode(line); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return "", err
		}
	}
	if r.cfg.Spans != nil {
		if err := write("spans.jsonl", func(f *os.File) error {
			enc := json.NewEncoder(f)
			for _, sp := range r.cfg.Spans() {
				if err := enc.Encode(sp); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return "", err
		}
	}
	if r.cfg.Status != nil {
		if err := write("status.json", func(f *os.File) error {
			b, err := r.cfg.Status()
			if err != nil {
				return err
			}
			_, err = f.Write(b)
			return err
		}); err != nil {
			return "", err
		}
	}
	if r.cfg.Conns != nil {
		if err := write("conns.json", func(f *os.File) error {
			b, err := r.cfg.Conns()
			if err != nil {
				return err
			}
			_, err = f.Write(b)
			return err
		}); err != nil {
			return "", err
		}
	}
	for _, prof := range []string{"goroutine", "heap"} {
		p := pprof.Lookup(prof)
		if p == nil {
			continue
		}
		if err := write(prof+".pprof", func(f *os.File) error {
			return p.WriteTo(f, 0)
		}); err != nil {
			return "", err
		}
	}

	meta := bundleMeta{
		Reason: reason,
		Unix:   unix(now),
		Time:   now.UTC().Format(time.RFC3339Nano),
		Files:  append(files, "meta.json"),
	}
	if r.cfg.Store != nil {
		st := r.cfg.Store.Stats()
		meta.StoreStats = &st
	}
	if err := write("meta.json", func(f *os.File) error {
		return json.NewEncoder(f).Encode(meta)
	}); err != nil {
		return "", err
	}

	if err := os.Rename(tmp, final); err != nil {
		return "", err
	}
	r.mu.Lock()
	r.captured++
	r.mu.Unlock()
	r.prune()
	return final, nil
}

// prune removes the oldest bundles beyond keep. Bundle names embed a UTC
// timestamp, so lexicographic order is chronological.
func (r *Recorder) prune() {
	names := r.bundles()
	for len(names) > keep {
		os.RemoveAll(filepath.Join(r.cfg.Dir, names[0]))
		names = names[1:]
	}
}

// bundles lists retained bundle directory names, oldest first.
func (r *Recorder) bundles() []string {
	entries, err := os.ReadDir(r.cfg.Dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "bundle-") && !strings.HasSuffix(e.Name(), ".tmp") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

// RecorderStats is the recorder's own health surface, rendered into
// /statusz.
type RecorderStats struct {
	Dir        string `json:"dir"`
	Captured   uint64 `json:"captured"`
	Skipped    uint64 `json:"skipped_cooldown"`
	Bundles    int    `json:"bundles"`
	Keep       int    `json:"keep"`
	CooldownMS int64  `json:"cooldown_ms"`
}

// Stats reports capture counters.
func (r *Recorder) Stats() RecorderStats {
	r.mu.Lock()
	captured, skipped := r.captured, r.skipped
	r.mu.Unlock()
	return RecorderStats{
		Dir:        r.cfg.Dir,
		Captured:   captured,
		Skipped:    skipped,
		Bundles:    len(r.bundles()),
		Keep:       keep,
		CooldownMS: cooldown.Milliseconds(),
	}
}

// sanitizeReason maps a trigger reason onto a filesystem-safe slug.
func sanitizeReason(reason string) string {
	if reason == "" {
		return "manual"
	}
	var b strings.Builder
	for _, r := range reason {
		ok := r == '_' || r == '-' || (r >= 'a' && r <= 'z') ||
			(r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	const maxReason = 48
	s := b.String()
	if len(s) > maxReason {
		s = s[:maxReason]
	}
	return s
}
