package flight

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// This file is the crash-dump half of the flight recorder: on a
// rejection, an internal fault, a deadline, or a campaign watchdog
// abandonment, the caller snapshots the ring and writes a
// self-contained JSON bundle — the event timeline plus everything
// needed to interpret it (per-run Stats, the engine census, the policy
// fingerprint and table-bundle version, the cache key) — into a
// postmortem directory. Each bundle is one file, written via temp +
// rename, so a reader never sees a torn document.

// Postmortem is one self-contained incident bundle.
type Postmortem struct {
	// Reason is the incident class: a Report outcome ("rejected",
	// "deadline", "canceled") or "watchdog-abandonment".
	Reason string `json:"reason"`
	// Detail is free-form context (first violation, watchdog message).
	Detail string `json:"detail,omitempty"`
	// File names the input image, when there is one.
	File string `json:"file,omitempty"`
	// Time is the wall-clock write time (RFC 3339; filled by
	// WritePostmortem when empty).
	Time string `json:"time"`
	// TableBundle is the checker's table-bundle version ("RSLT5", or
	// "compiled" for runtime-compiled tables).
	TableBundle string `json:"table_bundle,omitempty"`
	// PolicyFingerprint is the checker's configuration content key —
	// the same hash the verdict cache is keyed on.
	PolicyFingerprint string `json:"policy_fingerprint,omitempty"`
	// CacheKey is the image's whole-content key, when a cache was
	// attached to the run.
	CacheKey string `json:"cache_key,omitempty"`
	// EngineCensus counts recorded shard spans by engine (filled from
	// Spans by WritePostmortem when nil).
	EngineCensus map[string]int64 `json:"engine_census"`
	// Stats is the per-run core.Stats record (typed any to keep this
	// package dependency-free; core owns the concrete type).
	Stats any `json:"stats,omitempty"`
	// Violations carries the run's violation list in whatever
	// serializable form the caller has.
	Violations any `json:"violations,omitempty"`
	// Spans is the ring snapshot, sorted by start time.
	Spans []Event `json:"spans"`
}

// Census folds a snapshot into the per-engine shard-span count, plus a
// "cache" row counting whole-image cache serves.
func Census(events []Event) map[string]int64 {
	out := map[string]int64{}
	for _, ev := range events {
		switch ev.Kind {
		case SpanShard:
			out[ev.Engine.String()]++
		case EventCacheServe:
			out[EngineCache.String()]++
		}
	}
	return out
}

// pmSeq disambiguates bundles written within one wall-clock second.
var pmSeq atomic.Uint64

// WritePostmortem writes the bundle as one JSON file under dir
// (created if needed) and returns the file's path. The name embeds the
// timestamp, a process-local sequence number and the reason, so
// concurrent writers never collide and a directory listing reads as an
// incident log.
func WritePostmortem(dir string, pm *Postmortem) (string, error) {
	if pm.Time == "" {
		pm.Time = time.Now().UTC().Format(time.RFC3339Nano)
	}
	if pm.EngineCensus == nil {
		pm.EngineCensus = Census(pm.Spans)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("postmortem-%s-%d-%s.json",
		time.Now().UTC().Format("20060102T150405"), pmSeq.Add(1), slug(pm.Reason))
	path := filepath.Join(dir, name)
	data, err := json.MarshalIndent(pm, "", "  ")
	if err != nil {
		return "", err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", err
	}
	return path, nil
}

// slug reduces a reason to filename-safe characters.
func slug(s string) string {
	b := make([]byte, 0, len(s))
	for i := 0; i < len(s) && len(b) < 40; i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-':
			b = append(b, c)
		case c >= 'A' && c <= 'Z':
			b = append(b, c+('a'-'A'))
		case c == ' ' || c == '_':
			b = append(b, '-')
		}
	}
	if len(b) == 0 {
		return "incident"
	}
	return string(b)
}
