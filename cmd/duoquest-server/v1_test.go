package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	duoquest "github.com/duoquest/duoquest"
)

// elapsedRE matches the timing fields that legitimately differ between two
// otherwise identical responses.
var elapsedRE = regexp.MustCompile(`"elapsed_ms": ?\d+`)

// normalizeTiming zeroes elapsed_ms so responses can be compared byte for
// byte.
func normalizeTiming(body string) string {
	return elapsedRE.ReplaceAllString(body, `"elapsed_ms":0`)
}

func doReq(t *testing.T, srv *server, method, target, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	srv.handler().ServeHTTP(w, req)
	return w
}

// TestV1SynthesizeRequestEdges: a negative epoch is a client error like a
// negative deadline_ms (not a 410 for an epoch that could never exist), and
// a search that finds nothing renders an empty candidates array, not null.
func TestV1SynthesizeRequestEdges(t *testing.T) {
	cfg := boundedConfig()
	cfg.MaxStates = 200
	srv := testServer(t, cfg)
	cases := []struct {
		name string
		body string
		want int
		// wantBody, when set, must appear in the response.
		wantBody string
	}{
		{"negative epoch", masWith(`"epoch": -1`), http.StatusBadRequest, "epoch must be non-negative"},
		{"negative epoch streaming", masWith(`"epoch": -1, "stream": true`), http.StatusBadRequest, "epoch must be non-negative"},
		{"no candidates", `{"nlq": "names of organizations",
			"sketch": {"types": ["text"], "tuples": [["No Such Organization Anywhere"]]}}`,
			http.StatusOK, `"candidates": []`},
	}
	for _, c := range cases {
		w := doReq(t, srv, http.MethodPost, "/v1/synthesize", c.body, nil)
		if w.Code != c.want {
			t.Errorf("%s: status = %d, want %d: %s", c.name, w.Code, c.want, w.Body.String())
			continue
		}
		if !strings.Contains(w.Body.String(), c.wantBody) {
			t.Errorf("%s: body %q lacks %q", c.name, w.Body.String(), c.wantBody)
		}
	}
}

// TestSynthesizeEpochPinning drives the server's epoch surface end to end:
// a request pinned to a pre-ingest epoch keeps its answers after an append,
// an unpinned request observes the new head, and a retired epoch is 410.
func TestSynthesizeEpochPinning(t *testing.T) {
	srv := testServer(t, boundedConfig())

	before := doReq(t, srv, http.MethodPost, "/v1/synthesize", masWith(`"db": "mas"`), nil)
	if before.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", before.Code, before.Body.String())
	}
	var resp synthesizeResponse
	if err := json.Unmarshal(before.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	pinned := resp.Epoch

	// Ingest a new Europe organization; the head moves, the old epoch stays.
	if _, err := srv.eng.Append("mas", "organization", []duoquest.ColumnData{
		{Nums: []float64{9001}},
		{Texts: []string{"University of Testing"}},
		{Texts: []string{"Europe"}},
		{Texts: []string{"http://uot.example"}},
	}); err != nil {
		t.Fatal(err)
	}

	pinnedBody := masWith(fmt.Sprintf(`"db": "mas", "epoch": %d`, pinned))
	after := doReq(t, srv, http.MethodPost, "/v1/synthesize", pinnedBody, nil)
	if after.Code != http.StatusOK {
		t.Fatalf("pinned status = %d: %s", after.Code, after.Body.String())
	}
	if got, want := normalizeTiming(after.Body.String()), normalizeTiming(before.Body.String()); got != want {
		t.Errorf("pinned re-run differs from pre-ingest run:\n got %s\nwant %s", got, want)
	}

	head := doReq(t, srv, http.MethodPost, "/v1/synthesize", masWith(`"db": "mas"`), nil)
	if head.Code != http.StatusOK {
		t.Fatalf("head status = %d: %s", head.Code, head.Body.String())
	}
	var headResp synthesizeResponse
	if err := json.Unmarshal(head.Body.Bytes(), &headResp); err != nil {
		t.Fatal(err)
	}
	if headResp.Epoch != pinned+1 {
		t.Errorf("head epoch = %d, want %d", headResp.Epoch, pinned+1)
	}
	if !strings.Contains(head.Body.String(), "University of Testing") {
		t.Error("head-epoch previews should show the ingested row")
	}
	if strings.Contains(after.Body.String(), "University of Testing") {
		t.Error("pinned-epoch previews must not show the ingested row")
	}

	// A never-published epoch answers 410 Gone.
	gone := doReq(t, srv, http.MethodPost, "/v1/synthesize", `{"db": "mas", "epoch": 99, "nlq": "x"}`, nil)
	if gone.Code != http.StatusGone {
		t.Errorf("unpublished epoch status = %d, want %d", gone.Code, http.StatusGone)
	}
}
