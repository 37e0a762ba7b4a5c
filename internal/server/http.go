package server

import (
	"encoding/json"
	"io"
	"net/http"
)

// The JSON-over-HTTP surface. Each request runs in its own one-shot
// session: bindings and transactions do not persist across requests (a
// begin/commit pair inside one script works; a begin left open is rolled
// back when the request's session closes). Clients that need session state
// use the native protocol.

// ExecRequest is the POST /exec body.
type ExecRequest struct {
	Script string `json:"script"`
}

// ExecResponse is the POST /exec reply: one Result per statement, or an
// error (partial results from statements before the failure are included).
type ExecResponse struct {
	Results []Result `json:"results,omitempty"`
	Error   string   `json:"error,omitempty"`
}

func (s *Server) httpHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/exec", s.handleExec)
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.Handle("/", s.backend.Handler())
	return mux
}

func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, ExecResponse{Error: "POST a JSON body {\"script\": \"...\"}"})
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxFrame))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ExecResponse{Error: err.Error()})
		return
	}
	var req ExecRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, ExecResponse{Error: "bad request body: " + err.Error()})
		return
	}
	sess := s.backend.NewSession()
	defer sess.Close()
	rs, err := sess.Exec(r.Context(), req.Script)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ExecResponse{Results: rs, Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, ExecResponse{Results: rs})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc, _ := json.Marshal(v)
	w.Write(append(enc, '\n'))
}
