package serve

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"
)

// Journal-corruption corpora: a flipped bit and a mid-file byte-range
// deletion in rung lines. The contract under test:
// newline-terminated damage surfaces as a typed *JournalCorruptionError,
// recovery quarantines the bad suffix beside the journal, and a resumed
// job finishes with a journal byte-identical to one that was never
// damaged.

func TestJournalLineCodecRoundTrip(t *testing.T) {
	body := []byte(`{"step":3,"point":{"Step":3}}`)
	line := encodeJournalLine(body)
	if !bytes.HasSuffix(line, []byte("\n")) {
		t.Fatalf("encoded line %q lacks newline", line)
	}
	got, err := decodeJournalLine(bytes.TrimSuffix(line, []byte("\n")))
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("roundtrip = %q, %v; want %q", got, err, body)
	}

	// Legacy pre-CRC lines (bare JSON) pass through unverified.
	if got, err := decodeJournalLine(body); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("legacy line = %q, %v; want pass-through", got, err)
	}

	// A flipped payload bit fails the CRC.
	bad := append([]byte(nil), bytes.TrimSuffix(line, []byte("\n"))...)
	bad[len(bad)-2] ^= 0x01
	if _, err := decodeJournalLine(bad); err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("flipped bit decoded: %v", err)
	}

	// Malformed frames (too short, no space, non-hex CRC) are rejected.
	for _, frame := range []string{"abc", "0123456 {\"a\":1}", "zzzzzzzz {\"a\":1}", "01234567x{\"a\":1}"} {
		if _, err := decodeJournalLine([]byte(frame)); err == nil {
			t.Errorf("malformed frame %q decoded", frame)
		}
	}
}

// finishedJournal runs the standard test sweep to completion and
// returns the journal path and its intact bytes.
func finishedJournal(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	params := sweepTestParams()
	m := newJobManager(dir)
	j, _, err := m.start(params)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j, "completion", func(state string, _ int) bool { return state == jobDone })
	<-m.stop()
	path := journalPath(dir, params.ID)
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, intact
}

// assertCorruptionRecovery damages the journal via mutate, asserts the
// typed error and good-prefix return from readJournal, then recovers
// through a fresh manager and asserts quarantine + byte-identical
// resume.
func assertCorruptionRecovery(t *testing.T, dir, path string, intact []byte, mutate func([]byte) []byte, wantLine int) {
	t.Helper()
	params := sweepTestParams()
	damaged := mutate(append([]byte(nil), intact...))
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}

	d, err := readJournal(path)
	var corrupt *JournalCorruptionError
	if !errors.As(err, &corrupt) {
		t.Fatalf("readJournal over damage = %v; want *JournalCorruptionError", err)
	}
	if corrupt.Path != path || corrupt.Line != wantLine {
		t.Fatalf("corruption at %s line %d; want %s line %d", corrupt.Path, corrupt.Line, path, wantLine)
	}
	if corrupt.Offset <= 0 || corrupt.Offset >= int64(len(damaged)) {
		t.Fatalf("corruption offset %d outside (0, %d)", corrupt.Offset, len(damaged))
	}
	if d.params != params {
		t.Fatalf("good prefix lost the header: %+v", d.params)
	}
	if d.done {
		t.Fatal("damaged journal read as done despite a pre-terminator corruption")
	}
	if want := wantLine - 2; len(d.points) != want {
		t.Fatalf("good prefix holds %d rungs; want %d", len(d.points), want)
	}

	// Recovery through a fresh manager: quarantine, truncate, resume,
	// finish byte-identical.
	m := newJobManager(dir)
	if err := m.recover(); err != nil {
		t.Fatalf("recover over corruption: %v", err)
	}
	j, ok := m.get(params.ID)
	if !ok {
		t.Fatal("corrupt-journal job not recovered")
	}
	waitJob(t, j, "re-completion", func(state string, _ int) bool { return state == jobDone })
	<-m.stop()

	quarantined, err := os.ReadFile(path + quarantineSuffix)
	if err != nil {
		t.Fatalf("no quarantine file: %v", err)
	}
	if want := damaged[corrupt.Offset:]; !bytes.Equal(quarantined, want) {
		t.Fatalf("quarantine holds %q; want the damaged suffix %q", quarantined, want)
	}
	healed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(healed, intact) {
		t.Fatalf("healed journal differs from the never-damaged original:\nhealed   (%d bytes): %s\noriginal (%d bytes): %s",
			len(healed), healed, len(intact), intact)
	}
	os.Remove(path + quarantineSuffix)
}

func TestBitFlipInRungLineQuarantinesAndResumesByteIdentical(t *testing.T) {
	dir := t.TempDir()
	path, intact := finishedJournal(t, dir)
	lines := bytes.Split(bytes.TrimSuffix(intact, []byte("\n")), []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("journal too short: %d lines", len(lines))
	}
	// Flip one bit inside the JSON payload of the middle rung line.
	target := len(lines) / 2
	off := 0
	for i := 0; i < target; i++ {
		off += len(lines[i]) + 1
	}
	flip := off + 9 + len(lines[target][9:])/2
	assertCorruptionRecovery(t, dir, path, intact, func(b []byte) []byte {
		b[flip] ^= 0x20
		return b
	}, target+1)
}

func TestMidFileTruncationQuarantinesAndResumesByteIdentical(t *testing.T) {
	dir := t.TempDir()
	path, intact := finishedJournal(t, dir)
	lines := bytes.Split(bytes.TrimSuffix(intact, []byte("\n")), []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("journal too short: %d lines", len(lines))
	}
	// Delete a byte range spanning the boundary between rung lines 2 and
	// 3 (a lost sector): the splice glues half of one line to half of the
	// next, still newline-terminated — corruption, not a torn tail.
	off := 0
	for i := 0; i < 2; i++ {
		off += len(lines[i]) + 1
	}
	cutStart := off + len(lines[2])/2
	cutEnd := off + len(lines[2]) + 1 + len(lines[3])/2
	assertCorruptionRecovery(t, dir, path, intact, func(b []byte) []byte {
		return append(b[:cutStart], b[cutEnd:]...)
	}, 3)
}
