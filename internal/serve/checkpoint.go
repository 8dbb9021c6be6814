package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"log"
	"os"
	"path/filepath"
	"strings"

	"crophe"
)

// Sweep checkpoint journal: one append-only JSONL file per sweep job,
// <dir>/<id>.sweep.jsonl. The first line is the header (the job's full
// parameter set, so a journal is self-describing); each subsequent line
// records one completed rung; a {"done":true}
// terminator marks a finished sweep. Every line is written in a single
// write and fsynced before the next rung starts, so after a crash the
// journal holds exactly the completed rungs — at worst plus one torn
// trailing line, which recovery truncates away. Because rung outcomes
// are deterministic per (hw, seed, step, deadline bucket) — see
// RunResilienceSweepWith — a resumed journal's remaining lines are
// byte-identical to the ones an uninterrupted run would have written.
//
// Each line is framed "CCCCCCCC <json>\n" — eight lowercase hex digits
// of the IEEE CRC32 of the JSON payload, one space, the payload. The
// CRC turns silent mid-file corruption (a flipped bit, a hole from a
// bad sector) into a typed JournalCorruptionError instead of a quietly
// wrong resume. Legacy lines that start directly with '{' are accepted
// unverified so pre-CRC journals still recover; the framing is
// unambiguous because JSON objects never start with a hex digit.

const journalSuffix = ".sweep.jsonl"

// quarantineSuffix is appended to a journal's path when corruption is
// cut out of it: the bad suffix is preserved there for postmortem while
// the journal itself is truncated to the last good prefix.
const quarantineSuffix = ".quarantine"

// sweepParams is a sweep job's identity — the journal header and the
// input to the deterministic job ID. The struct must stay comparable —
// recovery and the checkpoint tests compare headers with ==.
type sweepParams struct {
	V          int    `json:"v"`
	ID         string `json:"id"`
	HW         string `json:"hw"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Steps      int    `json:"steps"`
	DeadlineMS int    `json:"deadline_ms"`
}

// sweepID derives the job ID from the parameters (FNV-1a over a
// canonical encoding), so POSTing the same sweep twice addresses the
// same job instead of running it twice. The encoding is part of the
// journal format: changing it orphans every checkpointed job.
func sweepID(p sweepParams) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d|%d|%d", p.HW, p.Workload, p.Seed, p.Steps, p.DeadlineMS)
	return fmt.Sprintf("%016x", h.Sum64())
}

func journalPath(dir, id string) string {
	return filepath.Join(dir, id+journalSuffix)
}

// journalEntry is one post-header line: a completed rung or the
// terminator.
type journalEntry struct {
	Step  *int                    `json:"step,omitempty"`
	Point *crophe.ResiliencePoint `json:"point,omitempty"`
	Done  bool                    `json:"done,omitempty"`
}

// encodeJournalLine frames one JSON payload with its CRC32:
// "CCCCCCCC <json>\n".
func encodeJournalLine(body []byte) []byte {
	out := make([]byte, 0, len(body)+10)
	out = fmt.Appendf(out, "%08x ", crc32.ChecksumIEEE(body))
	out = append(out, body...)
	return append(out, '\n')
}

// decodeJournalLine strips and verifies a line's CRC frame, returning
// the JSON payload. Lines that start with '{' are the legacy unframed
// format and pass through unverified.
func decodeJournalLine(line []byte) ([]byte, error) {
	if len(line) > 0 && line[0] == '{' {
		return line, nil
	}
	if len(line) < 10 || line[8] != ' ' {
		return nil, fmt.Errorf("malformed frame (want 8-hex-digit CRC prefix)")
	}
	var want uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &want); err != nil {
		return nil, fmt.Errorf("malformed CRC prefix %q", line[:8])
	}
	body := line[9:]
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("CRC mismatch (stored %08x, computed %08x)", want, got)
	}
	return body, nil
}

// appendLine writes one journal line (CRC-framed) and forces it to
// stable storage; the rung is not considered checkpointed until the
// Sync returns.
func appendLine(f *os.File, v any) error {
	if f == nil {
		return nil
	}
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encoding journal line: %w", err)
	}
	if _, err := f.Write(encodeJournalLine(body)); err != nil {
		return fmt.Errorf("appending journal line: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("syncing journal: %w", err)
	}
	return nil
}

// JournalCorruptionError reports a journal line that is present and
// newline-terminated — so not a torn tail — but fails its CRC or does
// not decode. Everything before Offset is intact and trustworthy;
// recovery quarantines the suffix and resumes from the good prefix.
type JournalCorruptionError struct {
	Path   string // journal file
	Line   int    // 1-based line number of the bad line
	Offset int64  // byte offset where the bad line starts (= good-prefix length)
	Reason string // what failed: CRC mismatch, malformed frame, undecodable JSON
}

func (e *JournalCorruptionError) Error() string {
	return fmt.Sprintf("journal %s corrupt at line %d (offset %d): %s", e.Path, e.Line, e.Offset, e.Reason)
}

// journalData is everything readJournal recovers from a checkpoint
// file: the header, every intact rung, whether the terminator is
// present, and keep — the byte offset past the last intact line, which
// recovery truncates the file to before appending resumes.
type journalData struct {
	params sweepParams
	points map[int]crophe.ResiliencePoint
	done   bool
	keep   int64
}

// readJournal parses a checkpoint file, distinguishing two failure
// shapes. A torn tail — the final line missing its newline, whatever
// its content — is the expected crash-mid-write artifact: it is
// silently excluded from keep and no error is returned. A
// newline-terminated line that fails its CRC, has a malformed frame, or
// does not decode is corruption: readJournal still returns the good
// prefix (so the caller can resume) alongside a *JournalCorruptionError
// describing the first bad line. A bad header is unrecoverable and
// returns only an error.
func readJournal(path string) (journalData, error) {
	d := journalData{points: make(map[int]crophe.ResiliencePoint)}
	raw, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}

	lineNo := 0
	for off := int64(0); off < int64(len(raw)); {
		nl := bytes.IndexByte(raw[off:], '\n')
		if nl < 0 {
			// Unterminated final line: a torn tail from a crash mid-write
			// (even if its content happens to parse — a write that never
			// completed is not checkpointed). Exclude it from keep.
			break
		}
		line := raw[off : off+int64(nl)]
		lineNo++
		body, derr := decodeJournalLine(line)
		if derr == nil && lineNo == 1 {
			if err := json.Unmarshal(body, &d.params); err != nil || d.params.V != 1 {
				return journalData{}, fmt.Errorf("bad journal header in %s: %v", path, err)
			}
			off += int64(nl) + 1
			d.keep = off
			continue
		}
		var e journalEntry
		if derr == nil {
			if uerr := json.Unmarshal(body, &e); uerr != nil {
				derr = fmt.Errorf("undecodable entry: %v", uerr)
			}
		}
		if derr != nil {
			if lineNo == 1 {
				return journalData{}, fmt.Errorf("bad journal header in %s: %v", path, derr)
			}
			return d, &JournalCorruptionError{Path: path, Line: lineNo, Offset: d.keep, Reason: derr.Error()}
		}
		switch {
		case e.Done:
			d.done = true
		case e.Step != nil && e.Point != nil:
			d.points[*e.Step] = *e.Point
		}
		off += int64(nl) + 1
		d.keep = off
	}
	if lineNo == 0 {
		return journalData{}, fmt.Errorf("empty journal %s", path)
	}
	return d, nil
}

// quarantineJournal preserves a journal's corrupt suffix (everything
// from keep on) beside the file as <path>.quarantine, then truncates
// the journal to the good prefix so appends can resume.
func quarantineJournal(path string, keep int64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Seek(keep, 0); err != nil {
		return err
	}
	q, err := os.OpenFile(path+quarantineSuffix, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := q.ReadFrom(f); err != nil {
		q.Close()
		return err
	}
	if err := q.Close(); err != nil {
		return err
	}
	return os.Truncate(path, keep)
}

// recoverJournal reads a journal and, when it finds mid-file
// corruption, quarantines the bad suffix and resumes from the good
// prefix — logging loudly, because a CRC mismatch means the storage
// layer lied. Torn tails recover silently as before. Unrecoverable
// errors (bad header, unreadable file) pass through to the caller.
func recoverJournal(path string) (journalData, error) {
	d, err := readJournal(path)
	var corrupt *JournalCorruptionError
	if errors.As(err, &corrupt) {
		log.Printf("crophe-serve: %v; quarantining suffix to %s%s and resuming from last good prefix",
			corrupt, path, quarantineSuffix)
		if qerr := quarantineJournal(path, corrupt.Offset); qerr != nil {
			return journalData{}, fmt.Errorf("quarantining corrupt journal %s: %w", path, qerr)
		}
		return d, nil
	}
	return d, err
}

// openJournal opens (creating if needed) a job's journal for appending,
// truncating any torn tail first and writing the header when the file is
// new. A "" dir disables journaling: the returned file is nil and
// appendLine ignores it.
func openJournal(dir string, params sweepParams, keep int64, isNew bool) (*os.File, error) {
	if dir == "" {
		return nil, nil
	}
	path := journalPath(dir, params.ID)
	if !isNew {
		if err := os.Truncate(path, keep); err != nil {
			return nil, fmt.Errorf("truncating torn journal tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if isNew {
		if err := appendLine(f, params); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// listJournals returns the checkpoint files in dir (no recursion; the
// directory belongs to crophe-serve). Quarantine files don't match the
// suffix and are naturally excluded.
func listJournals(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), journalSuffix) {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out, nil
}
