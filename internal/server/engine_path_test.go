package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	sxnm "repro"
	"repro/internal/config"
	"repro/internal/dataset"
)

// dirtyMoviesRequest renders a dirty Data set 1 corpus and its
// configuration into a job submission.
func dirtyMoviesRequest(t *testing.T) *JobRequest {
	t.Helper()
	doc, _, err := dataset.DataSet1(dataset.Movies1Options{Movies: 150, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var docXML, cfgXML bytes.Buffer
	if err := doc.Write(&docXML, sxnm.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := config.DataSet1(5).Document().Write(&cfgXML, sxnm.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	return &JobRequest{Tenant: "default", ConfigXML: cfgXML.String(), DocumentXML: docXML.String()}
}

// TestFilteredEngineMatchesUnfilteredFacade runs a job with the engine
// options sxnmd uses (the filtered classify path) and checks that the
// filter really skipped pairs while the clusters stay those of an
// unfiltered facade run over the same bytes.
func TestFilteredEngineMatchesUnfilteredFacade(t *testing.T) {
	req := dirtyMoviesRequest(t)
	s := newTestServer(t, func(c *Config) {
		c.Engine = sxnm.Options{UseFilter: true, PairWorkers: -1}
	})
	j, apiErr := s.Submit(req)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	waitTerminal(t, s, j.id)
	out, err := s.spool.loadOutcome(j.id)
	if err != nil || out == nil {
		t.Fatalf("outcome missing (%v)", err)
	}
	if out.State != StateDone {
		t.Fatalf("state %s, error %+v", out.State, out.Error)
	}
	if out.Stats == nil || out.Stats.FilteredOut == 0 {
		t.Fatalf("outcome stats report no filtered pairs: %+v", out.Stats)
	}

	cfg, err := sxnm.LoadConfig(strings.NewReader(req.ConfigXML))
	if err != nil {
		t.Fatal(err)
	}
	det, err := sxnm.NewWithOptions(cfg, sxnm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := sxnm.ParseXML(strings.NewReader(req.DocumentXML))
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Run(doc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FilteredOut != 0 {
		t.Fatalf("unfiltered reference filtered %d pairs", res.Stats.FilteredOut)
	}
	got, _ := json.Marshal(out.Clusters)
	want, _ := json.Marshal(clustersOf(res))
	if !bytes.Equal(got, want) {
		t.Errorf("filtered daemon clusters differ from the unfiltered facade run")
	}
}

// TestTerminalJobReleasesRequest checks that a finished job keeps no
// request body in memory while staying queryable with its tenant, and
// that the spooled job.json still carries the body a restarted daemon
// needs to resume an unfinished job.
func TestTerminalJobReleasesRequest(t *testing.T) {
	spoolDir := t.TempDir()
	withTenant := func(tenant string) *JobRequest {
		return mustRequest(t, func(r *JobRequest) { r.Tenant = tenant })
	}

	// Generation 1: one worker whose runner parks until the drain, so
	// the first job is in flight and the second stays queued; a third
	// job is canceled while queued, which finishes it at once.
	started := make(chan struct{})
	gen1, err := New(Config{
		SpoolDir: spoolDir,
		Workers:  1,
		Runner: func(ctx context.Context, det *sxnm.Detector, doc *sxnm.Document, fsys sxnm.CheckpointFS, dir string) (*sxnm.Result, error) {
			close(started)
			<-ctx.Done()
			return nil, sxnm.ErrCanceled
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	running, apiErr := gen1.Submit(withTenant("acme"))
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	<-started
	queued, apiErr := gen1.Submit(withTenant("globex"))
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	canceled, apiErr := gen1.Submit(withTenant("initech"))
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if _, changed := gen1.Cancel(canceled.id); !changed {
		t.Fatal("cancel of a queued job changed nothing")
	}
	if canceled.request() != nil {
		t.Error("canceled job still holds its request body")
	}
	if running.request() == nil || queued.request() == nil {
		t.Fatal("unfinished jobs lost their request bodies")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := gen1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Generation 2 resumes both unfinished jobs from their spooled
	// bodies and finishes them.
	gen2, err := New(Config{SpoolDir: spoolDir, Workers: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		gen2.Drain(ctx)
	}()
	ts := httptest.NewServer(gen2.Handler())
	defer ts.Close()
	for id, tenant := range map[string]string{running.id: "acme", queued.id: "globex", canceled.id: "initech"} {
		j := waitTerminal(t, gen2, id)
		if id != canceled.id {
			if out, err := gen2.spool.loadOutcome(id); err != nil || out == nil || out.State != StateDone {
				t.Errorf("job %s did not resume to done: %+v (%v)", id, out, err)
			}
		}
		if j.request() != nil {
			t.Errorf("job %s: terminal job still holds its request body", id)
		}
		_, status := getJSON(t, ts.URL+"/v1/jobs/"+id)
		if status["tenant"] != tenant {
			t.Errorf("job %s: status tenant = %v, want %q", id, status["tenant"], tenant)
		}
	}
}
