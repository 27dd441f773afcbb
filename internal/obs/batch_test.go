package obs

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"regexp"
	"strings"
	"testing"
)

// captureLog redirects the standard logger for the rest of the test.
func captureLog(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	out, flags := log.Writer(), log.Flags()
	log.SetOutput(&buf)
	log.SetFlags(0)
	t.Cleanup(func() {
		log.SetOutput(out)
		log.SetFlags(flags)
	})
	return &buf
}

func TestServeMetricsServesRegistryUntilStopped(t *testing.T) {
	logs := captureLog(t)
	reg := NewRegistry()
	reg.Counter("batch.records").Add(7)

	stop, err := ServeMetrics("", reg)
	if err != nil || logs.Len() != 0 {
		t.Fatalf("empty addr: err %v, logged %q", err, logs)
	}
	stop()

	stop, err = ServeMetrics("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`^metrics at (http://127\.0\.0\.1:\d+/)\n$`).FindStringSubmatch(logs.String())
	if m == nil {
		stop()
		t.Fatalf("log line %q", logs)
	}
	resp, err := http.Get(m[1])
	if err != nil {
		stop()
		t.Fatal(err)
	}
	var snap map[string]any
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil || snap["batch.records"] != float64(7) {
		stop()
		t.Fatalf("snapshot %v, err %v", snap, err)
	}
	stop()
	if _, err := http.Get(m[1]); err == nil {
		t.Fatal("metrics still served after stop")
	}
	if _, err := ServeMetrics("256.0.0.1:0", reg); err == nil {
		t.Fatal("ServeMetrics on a bad address succeeded")
	}
}

func TestWriteFinalStats(t *testing.T) {
	logs := captureLog(t)
	reg := NewRegistry()
	reg.Counter("batch.records").Add(3)
	var out bytes.Buffer
	WriteFinalStats(&out, reg)
	if logs.String() != "final stats:\n" {
		t.Fatalf("log %q", logs)
	}
	var want bytes.Buffer
	if err := reg.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	want.WriteString("\n")
	if out.String() != want.String() || !strings.Contains(out.String(), `"batch.records": 3`) {
		t.Fatalf("dump %q, want %q", out.String(), want.String())
	}
}
