package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rrq"
)

// fuzzBodies seeds FuzzServeRequest: the bodies the server tests send, and
// bodies that carry bytes after their first JSON value.
var fuzzBodies = []string{
	solveBody,
	`{"q":[0.4,0.7],"k":2,"epsilon":0.1,"tenant":"alice"}`,
	`{"q":[0.35,0.8],"k":1,"epsilon":0.05}`,
	`{"q":`,
	`{"q":[0.4,0.7],"k":0,"epsilon":0.1}`,
	`{"q":[0.4,0.7],"k":2,"epsilon":1.5}`,
	`{"q":[0.4,0.7,0.1],"k":2,"epsilon":0.1}`,
	`{"qq":[0.4]}`,
	`{"point":[0.5,0.5]}`,
	`{"point":[0.4]}`,
	`{"index":1}`,
	`{"index":99}`,
	`{"q":[0.5,0.5],"k":1,"epsilon":0.1} trailing garbage`,
	`{"q":[0.5,0.5],"k":1,"epsilon":0.1}{"k":99}`,
	`{"q":[0.5,0.5],"k":1,"epsilon":0.1}]`,
	`{"index":3}{"index":5}`,
}

// FuzzServeRequest sends arbitrary bytes as the body of every mutating and
// solving endpoint of a fresh small index with a query timeout. Every reply
// must be a 200 with a JSON body, or a 4xx or 504 whose JSON body names the
// error kind — never a 500, never a panic.
func FuzzServeRequest(f *testing.F) {
	for _, b := range fuzzBodies {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := New(Config{Index: testIndex(t, rrq.WithQueryTimeout(50*time.Millisecond))})
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		for _, path := range []string{"/v1/solve", "/v1/insert", "/v1/delete"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			switch code := rec.Code; {
			case code == http.StatusOK:
				if !json.Valid(rec.Body.Bytes()) {
					t.Fatalf("%s %q: 200 with a non-JSON body %q", path, body, rec.Body.Bytes())
				}
			case code >= 400 && code < 500 || code == http.StatusGatewayTimeout:
				var er errorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Kind == "" {
					t.Fatalf("%s %q: %d without a JSON error kind: %q", path, body, code, rec.Body.Bytes())
				}
			default:
				t.Fatalf("%s %q: status %d: %q", path, body, code, rec.Body.Bytes())
			}
		}
	})
}

// A body must hold exactly one JSON value: bytes after it — garbage, a
// second object, a stray bracket — are a 400 of kind "query", and a
// two-object delete deletes nothing.
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	ix := testIndex(t)
	ts := newTestServer(t, Config{Index: ix})
	for _, body := range []string{
		`{"q":[0.5,0.5],"k":1,"epsilon":0.1} trailing garbage`,
		`{"q":[0.5,0.5],"k":1,"epsilon":0.1}{"k":99}`,
		`{"q":[0.5,0.5],"k":1,"epsilon":0.1}]`,
	} {
		resp, b := postJSON(t, ts.URL+"/v1/solve", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d: %s, want 400", body, resp.StatusCode, b)
		}
		if er := decodeError(t, b); er.Kind != "query" {
			t.Fatalf("%s: kind %q, want query", body, er.Kind)
		}
	}
	resp, b := postJSON(t, ts.URL+"/v1/delete", `{"index":3}{"index":5}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("two-object delete: status %d: %s, want 400", resp.StatusCode, b)
	}
	if ix.Version() != 1 || ix.Len() != 4 {
		t.Fatalf("two-object delete mutated the index: version %d, len %d", ix.Version(), ix.Len())
	}
	// Trailing whitespace is not data.
	if resp, b := postJSON(t, ts.URL+"/v1/solve", solveBody+" \n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("trailing whitespace: status %d: %s, want 200", resp.StatusCode, b)
	}
}
