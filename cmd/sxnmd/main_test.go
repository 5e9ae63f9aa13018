package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The daemon smoke test: a real sxnmd process lifecycle, in-process.
// Start the daemon, submit a job over HTTP, SIGTERM it mid-run, require
// a clean drain, start a second generation over the same spool, and
// require the job to resume and finish. This is the CI "daemon smoke"
// job and the closest automated stand-in for an operator's kill -TERM.

const smokeConfigXML = `
<sxnm-config window="4">
  <candidate name="movie" xpath="movie_database/movies/movie"
             rule="either" odThreshold="0.7" descThreshold="0.4">
    <path id="1" relPath="title/text()"/>
    <path id="2" relPath="@year"/>
    <od pid="1" relevance="0.8"/>
    <od pid="2" relevance="0.2" sim="year"/>
    <key name="title"><part pid="1" order="1" pattern="K1-K5"/></key>
    <key name="year">
      <part pid="2" order="1" pattern="D3,D4"/>
      <part pid="1" order="2" pattern="K1,K2"/>
    </key>
  </candidate>
  <candidate name="person" xpath="movie_database/movies/movie/people/person"
             threshold="0.85">
    <path id="1" relPath="text()"/>
    <od pid="1" relevance="1"/>
    <key name="name"><part pid="1" order="1" pattern="C1-C6"/></key>
  </candidate>
</sxnm-config>`

// smokeDoc builds a corpus large enough that the run is still in
// flight when the test pulls the trigger.
func smokeDoc(n int) string {
	titles := []string{
		"The Matrix", "Matrix, The", "The Matrrix",
		"The Mask of Zorro", "Mask of Zorro",
		"The Godfather", "Godfather, The", "Leon",
	}
	var b strings.Builder
	b.WriteString("<movie_database><movies>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b,
			`<movie year="%d"><title>%s %d</title><people><person>Actor Number %d</person><person>Actress Number %d</person></people></movie>`,
			1970+i%40, titles[i%len(titles)], i%97, i%89, i%83)
	}
	b.WriteString("</movies></movie_database>")
	return b.String()
}

// startDaemon launches run() in a goroutine and waits for its listener.
func startDaemon(t *testing.T, spool string) (base string, exited <-chan error) {
	t.Helper()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-spool", spool,
			"-workers", "1",
			"-pair-workers", "0",
			"-spill-rows", "64",
			"-retry-base", "1ms",
			"-drain-timeout", "1m",
		}, ready)
	}()
	select {
	case addr := <-ready:
		return "http://" + addr, done
	case err := <-done:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never came up")
	}
	return "", nil
}

func getStatus(t *testing.T, base, id string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDaemonSmokeSIGTERMRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon smoke is not a -short test")
	}
	// Keep SIGTERM's default action (kill the test process) disabled
	// for the whole run, covering the instant before run() registers
	// its own handler.
	guard := make(chan os.Signal, 1)
	signal.Notify(guard, syscall.SIGTERM)
	defer signal.Stop(guard)

	spool := t.TempDir()
	base, exited := startDaemon(t, spool)

	resp, err := http.Get(base + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()

	body, err := json.Marshal(map[string]any{
		"config_xml":   smokeConfigXML,
		"document_xml": smokeDoc(1500),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var submitted struct {
		ID string `json:"id"`
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &submitted); err != nil || submitted.ID == "" {
		t.Fatalf("submit response %s: %v", raw, err)
	}

	// Fire SIGTERM once the worker has the job. The corpus is big
	// enough that the run is normally still going; if the machine is
	// fast and it already finished, the test still proves the restart
	// serves the finished job.
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := getStatus(t, base, submitted.ID)["state"]
		if st == "running" || st == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("daemon did not drain cleanly: %v", err)
		}
	case <-time.After(90 * time.Second):
		t.Fatal("daemon never exited after SIGTERM")
	}

	// Generation 2 over the same spool: the job resumes (or its
	// finished record is served) and reaches done.
	base2, exited2 := startDaemon(t, spool)
	resp, err = http.Get(base2 + "/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted readyz: %v %v", resp, err)
	}
	resp.Body.Close()

	deadline = time.Now().Add(120 * time.Second)
	for {
		st, _ := getStatus(t, base2, submitted.ID)["state"].(string)
		if st == "done" {
			break
		}
		if st == "failed" || st == "canceled" {
			t.Fatalf("resumed job ended %s: %v", st, getStatus(t, base2, submitted.ID))
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed job never finished (state %s)", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// sxnmd runs the filtered classify path, as sxnm does by default.
	stats, _ := getStatus(t, base2, submitted.ID)["stats"].(map[string]any)
	if f, _ := stats["filtered_out"].(float64); f <= 0 {
		t.Errorf("resumed job's stats report no filtered pairs: %v", stats)
	}
	resp, err = http.Get(base2 + "/v1/jobs/" + submitted.ID + "/clusters")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clusters after resume: %d %s", resp.StatusCode, raw)
	}
	var clusters struct {
		Clusters map[string][][]int `json:"clusters"`
	}
	if err := json.Unmarshal(raw, &clusters); err != nil {
		t.Fatal(err)
	}
	if len(clusters.Clusters["movie"]) == 0 || len(clusters.Clusters["person"]) == 0 {
		t.Fatalf("resumed job returned empty clusters: %s", raw)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited2:
		if err != nil {
			t.Fatalf("second generation drain: %v", err)
		}
	case <-time.After(90 * time.Second):
		t.Fatal("second generation never exited")
	}
}

// Regression: run() used to install its signal handler only after it
// reported ready, so a SIGTERM that arrived as soon as /readyz answered
// found no handler: in a real process it killed the daemon instead of
// draining it. The test holds run() at its ready report (an unbuffered
// channel), signals once /readyz answers, and only then lets it go on.
func TestDaemonDrainsSIGTERMRightAfterReady(t *testing.T) {
	// Catch SIGTERM for the test too, so a daemon that misses it hangs
	// (and fails below) instead of killing the test binary.
	guard := make(chan os.Signal, 1)
	signal.Notify(guard, syscall.SIGTERM)
	defer signal.Stop(guard)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	ready := make(chan string)
	exited := make(chan error, 1)
	go func() {
		exited <- run([]string{"-addr", addr, "-spool", t.TempDir(), "-workers", "1", "-drain-timeout", "1m"}, ready)
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if resp, err := http.Get("http://" + addr + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never answered /readyz")
		}
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-guard: // delivered to every handler installed by now
	case <-time.After(10 * time.Second):
		t.Fatal("SIGTERM never delivered")
	}
	<-ready
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon ignored a SIGTERM sent right after it reported ready")
	}
}

func TestRunRequiresSpool(t *testing.T) {
	if err := run([]string{"-addr", "127.0.0.1:0"}, nil); err == nil {
		t.Fatal("run without -spool succeeded")
	}
}
