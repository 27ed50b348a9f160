package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/adapt"
	"repro/internal/models/modelstest"
)

func getVersion(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	r, err := ts.Client().Get(ts.URL + "/version")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/version = %d", r.StatusCode)
	}
	var v map[string]any
	if err := json.NewDecoder(r.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestVersionReportsBackend: /version must state which arithmetic the
// server runs, so a fleet operator can audit deployments.
func TestVersionReportsBackend(t *testing.T) {
	deflt := New(Config{})
	ts := httptest.NewServer(deflt.Handler())
	defer ts.Close()
	if v := getVersion(t, ts); v["backend"] != "float32" {
		t.Errorf("default backend = %v, want float32", v["backend"])
	}

	qb := modelstest.QuantBundle(t, 61)
	int8srv := New(Config{Backend: adapt.BackendInt8, Bundle: qb})
	ts8 := httptest.NewServer(int8srv.Handler())
	defer ts8.Close()
	if v := getVersion(t, ts8); v["backend"] != "int8" {
		t.Errorf("int8 server reports backend %v", v["backend"])
	}
}

// TestBackendLocalizeParity: the float32 and int8 servers must both
// localize the same request, within quantization error of each other.
func TestBackendLocalizeParity(t *testing.T) {
	qb := modelstest.QuantBundle(t, 61)
	body := evioBody(t, simulateEvents(1.5, 40, 71))

	responses := map[adapt.Backend]*LocalizeResponse{}
	for _, backend := range []adapt.Backend{adapt.BackendFloat32, adapt.BackendInt8} {
		srv := New(Config{Backend: backend, Bundle: qb})
		ts := httptest.NewServer(srv.Handler())
		lr, resp := postLocalize(t, ts.Client(), ts.URL, body, ContentTypeEvio)
		ts.Close()
		if lr == nil {
			t.Fatalf("backend %s: status %d", backend, resp.StatusCode)
		}
		if !lr.ML {
			t.Fatalf("backend %s: response not ML", backend)
		}
		responses[backend] = lr
	}

	// float32 may drift within quantization error, but must stay close on
	// a bright burst.
	i8, f32 := responses[adapt.BackendInt8], responses[adapt.BackendFloat32]
	if d := f32.PolarDeg - i8.PolarDeg; d > 5 || d < -5 {
		t.Errorf("int8 polar %v far from float32 %v", i8.PolarDeg, f32.PolarDeg)
	}
}

// TestReloadKeepsBackendContract: on an int8 server, reloading an
// unquantized bundle must fail with 422 and leave the previous quantized
// generation serving.
func TestReloadKeepsBackendContract(t *testing.T) {
	qb := modelstest.QuantBundle(t, 61)
	plain := tinyBundle(t) // unswapped, no Int8
	dir := t.TempDir()
	plainPath := filepath.Join(dir, "plain.gob")
	if err := adapt.SaveModels(plain, plainPath); err != nil {
		t.Fatal(err)
	}

	srv := New(Config{Backend: adapt.BackendInt8, Bundle: qb})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	r, err := ts.Client().Post(ts.URL+"/admin/reload", ContentTypeJSON,
		strings.NewReader(`{"path": "`+plainPath+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("reload of unquantized bundle on int8 backend = %d, want 422", r.StatusCode)
	}

	body := evioBody(t, simulateEvents(1.5, 40, 73))
	lr, resp := postLocalize(t, ts.Client(), ts.URL, body, ContentTypeEvio)
	if lr == nil || !lr.ML {
		t.Fatalf("previous generation lost after failed reload: %+v (status %v)", lr, resp.StatusCode)
	}
}

func TestNewPanicsOnBadBackend(t *testing.T) {
	cases := []Config{
		{Backend: "fp16"},
		{Backend: adapt.BackendInt8, Bundle: tinyBundle(t)},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: New did not panic", i)
				}
			}()
			New(cfg)
		}()
	}
}
