package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"csb/internal/journal"
)

func openJournalT(t *testing.T, path string) *journal.Journal {
	t.Helper()
	jl, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jl.Close() })
	return jl
}

// TestCrashResumeByteIdentical is the serve half of the crash-resume
// acceptance criterion: a daemon killed (simulated: abandoned without Close)
// while a journaled job is mid-build must, after restart on the same
// journal, re-enqueue the job and produce bytes identical to an
// uninterrupted run.
func TestCrashResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec(77)

	// Golden: an uninterrupted, journal-free run of the same spec.
	sGold, tsGold := newTestServer(t, Config{Workers: 1})
	_ = sGold
	_, st := postJob(t, tsGold, spec)
	pollDone(t, tsGold, st.ID)
	golden := fetchArtifact(t, tsGold, st.ID)
	artifactID := st.ArtifactID

	// "Crashed" daemon: the build blocks forever, so the accepted job never
	// reaches a terminal journal record. No Close — that is the kill -9.
	walPath := filepath.Join(dir, "csbd.wal")
	jl1 := openJournalT(t, walPath)
	crashed, err := New(Config{Workers: 1, Journal: jl1})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	crashed.buildArtifact = func(ctx context.Context, spec Spec) ([]byte, error) {
		<-release
		return nil, errors.New("abandoned")
	}
	spec2 := spec
	if _, err := crashed.Submit(&spec2); err != nil {
		t.Fatal(err)
	}
	// The accepted record is on disk before Submit returns; nothing else to
	// wait for. Reopen the journal as a restarted process would.
	jl2 := openJournalT(t, walPath)
	restarted, tsRestarted := newTestServer(t, Config{Workers: 1, Journal: jl2})

	m := restarted.Metrics()
	if m.Journal == nil || m.Journal.JobsResumed != 1 {
		t.Fatalf("resumed journal metrics = %+v, want 1 job resumed", m.Journal)
	}
	// The resumed job carries the same content address; poll it there.
	deadline := time.Now().Add(60 * time.Second)
	var got []byte
	for {
		resp, err := http.Get(tsRestarted.URL + "/v1/artifacts/" + artifactID)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			// The resubmitted job re-indexes the artifact's format, so the
			// content-address fetch keeps its accurate content type.
			if ct, want := resp.Header.Get("Content-Type"), spec2.ContentType(); ct != want {
				t.Errorf("resumed artifact Content-Type = %q, want %q", ct, want)
			}
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			resp.Body.Close()
			got = buf.Bytes()
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("resumed job never produced the artifact")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("resumed artifact differs from uninterrupted run: %d vs %d bytes", len(got), len(golden))
	}

	// A second restart finds the job terminal and resumes nothing.
	restarted.Close()
	jl3 := openJournalT(t, walPath)
	again, _ := newTestServer(t, Config{Workers: 1, Journal: jl3})
	if m := again.Metrics(); m.Journal.JobsResumed != 0 {
		t.Fatalf("terminal job resumed on second restart: %+v", m.Journal)
	}
}

// TestResumeSkipsTerminalJobs: done/failed/canceled jobs in the journal are
// not re-enqueued, and compaction drops their records.
func TestResumeSkipsTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	mkRecords := func(name string, terminalKind string) string {
		path := filepath.Join(dir, name)
		jl := openJournalT(t, path)
		spec := tinySpec(5)
		if err := spec.Normalize(); err != nil {
			t.Fatal(err)
		}
		specJSON, _ := json.Marshal(spec)
		jl.Append(journal.Record{Kind: journalJobAccepted, Key: spec.ID(), Payload: specJSON})
		jl.Append(journal.Record{Kind: terminalKind, Key: spec.ID()})
		jl.Close()
		return path
	}
	for _, kind := range []string{journalJobDone, journalJobFailed, journalJobCanceled} {
		path := mkRecords("wal-"+kind, kind)
		jl := openJournalT(t, path)
		s, err := New(Config{Workers: 1, Journal: jl})
		if err != nil {
			t.Fatal(err)
		}
		m := s.Metrics()
		if m.Journal.JobsResumed != 0 {
			t.Errorf("%s: resumed %d jobs, want 0", kind, m.Journal.JobsResumed)
		}
		if m.JobsSubmitted != 0 {
			t.Errorf("%s: %d jobs submitted during resume", kind, m.JobsSubmitted)
		}
		s.Close()
		// Compaction left nothing behind for a fully-terminal history.
		jl2 := openJournalT(t, path)
		if recs := jl2.Records(); len(recs) != 0 {
			t.Errorf("%s: post-compaction records = %+v", kind, recs)
		}
	}
}

// TestResumeReopensReacceptedJob: accepted → done → accepted (resubmit after
// cache eviction) must resume, since the latest acceptance is unfinished.
func TestResumeReopensReacceptedJob(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	jl := openJournalT(t, path)
	spec := tinySpec(9)
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	specJSON, _ := json.Marshal(spec)
	key := spec.ID()
	jl.Append(journal.Record{Kind: journalJobAccepted, Key: key, Payload: specJSON})
	jl.Append(journal.Record{Kind: journalJobDone, Key: key})
	jl.Append(journal.Record{Kind: journalJobAccepted, Key: key, Payload: specJSON})
	jl.Close()

	jl2 := openJournalT(t, path)
	s, err := New(Config{Workers: 1, Journal: jl2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Metrics().Journal.JobsResumed; got != 1 {
		t.Fatalf("resumed %d jobs, want 1", got)
	}
}
