// Package server is the query-serving network layer: it accepts client
// connections on one listener and speaks two protocols over it — a
// length-prefixed native binary protocol for low-overhead programmatic
// clients, and JSON over HTTP for curl and scripting. Both execute EXTRA
// surface-language statements against a Backend, one session per native
// connection (per request for HTTP), with per-session slow-query
// attribution through the trace registry.
//
// The protocol is sniffed from the first bytes of each connection: native
// clients open with the 4-byte magic "XDB1"; anything else is handed to the
// HTTP server. One port serves both.
//
// Native framing, after the magic: every message is
//
//	[u32 big-endian length][1 type byte][payload, length-1 bytes]
//
// Strings inside payloads are u32 length + bytes. The client sends Exec
// (payload: script), Ping, or Bye; the server answers Hello (payload:
// session origin, sent once after the magic), Result (payload: encoded
// statement outputs), Error (payload: 1 code byte + message), or Pong. A
// session runs one statement at a time and answers frames in the order they
// arrive. A connection reader keeps reading while a statement runs, so a
// client that disconnects mid-query has its statement cancelled.
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Magic opens every native-protocol connection.
const Magic = "XDB1"

// Message types. Client-to-server types are low, server-to-client high.
const (
	MsgExec byte = 0x01 // payload: script bytes
	MsgPing byte = 0x02 // payload: empty
	MsgBye  byte = 0x03 // payload: empty; clean close

	MsgHello  byte = 0x10 // payload: origin string bytes
	MsgResult byte = 0x11 // payload: encoded []Result
	MsgError  byte = 0x12 // payload: 1 code byte + message bytes
	MsgPong   byte = 0x13 // payload: empty
)

// Error codes carried in MsgError frames, so clients can map server-side
// refusals back to sentinel errors without string matching.
const (
	ErrCodeGeneric      byte = 0
	ErrCodeTooManyConns byte = 1
	ErrCodeSessionDone  byte = 2
)

// MaxFrame bounds one frame (type byte + payload). Oversized frames are a
// protocol error, not an allocation request.
const MaxFrame = 64 << 20

// ErrFrameTooLarge: a peer announced a frame longer than MaxFrame.
var ErrFrameTooLarge = errors.New("server: frame exceeds size limit")

// Result is one statement's output on the wire: the same shape for the
// native encoding and the JSON endpoint.
type Result struct {
	Message string     `json:"message,omitempty"`
	Columns []string   `json:"columns,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
	OID     string     `json:"oid,omitempty"`
	// Plan is the rendered planner decision, set for explain statements
	// only: a plain retrieve's plan is not rendered for the wire (embedded
	// sessions get it in fieldrepl.Output.Plan).
	Plan string `json:"plan,omitempty"`
}

// WriteFrame writes one framed message.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload)+1 > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one framed message. The returned payload aliases a fresh
// allocation (safe to retain).
func ReadFrame(r *bufio.Reader) (typ byte, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 1 {
		return 0, nil, errors.New("server: zero-length frame")
	}
	if n > MaxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		// A header without its body is a broken peer, not a clean close.
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return body[0], body[1:], nil
}

func appendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func readString(b []byte) (string, []byte, error) {
	if len(b) < 4 {
		return "", nil, io.ErrUnexpectedEOF
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint32(len(b)) < n {
		return "", nil, io.ErrUnexpectedEOF
	}
	return string(b[:n]), b[n:], nil
}

// EncodeResults encodes statement outputs for a MsgResult payload.
func EncodeResults(rs []Result) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(rs)))
	for _, r := range rs {
		b = appendString(b, r.Message)
		b = binary.BigEndian.AppendUint32(b, uint32(len(r.Columns)))
		for _, c := range r.Columns {
			b = appendString(b, c)
		}
		b = binary.BigEndian.AppendUint32(b, uint32(len(r.Rows)))
		for _, row := range r.Rows {
			b = binary.BigEndian.AppendUint32(b, uint32(len(row)))
			for _, cell := range row {
				b = appendString(b, cell)
			}
		}
		b = appendString(b, r.OID)
		b = appendString(b, r.Plan)
	}
	return b
}

// DecodeResults decodes a MsgResult payload.
func DecodeResults(b []byte) ([]Result, error) {
	if len(b) < 4 {
		return nil, io.ErrUnexpectedEOF
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	rs := make([]Result, 0, n)
	var err error
	for i := uint32(0); i < n; i++ {
		var r Result
		if r.Message, b, err = readString(b); err != nil {
			return nil, err
		}
		if len(b) < 4 {
			return nil, io.ErrUnexpectedEOF
		}
		nc := binary.BigEndian.Uint32(b)
		b = b[4:]
		for j := uint32(0); j < nc; j++ {
			var c string
			if c, b, err = readString(b); err != nil {
				return nil, err
			}
			r.Columns = append(r.Columns, c)
		}
		if len(b) < 4 {
			return nil, io.ErrUnexpectedEOF
		}
		nr := binary.BigEndian.Uint32(b)
		b = b[4:]
		for j := uint32(0); j < nr; j++ {
			if len(b) < 4 {
				return nil, io.ErrUnexpectedEOF
			}
			nf := binary.BigEndian.Uint32(b)
			b = b[4:]
			row := make([]string, 0, nf)
			for k := uint32(0); k < nf; k++ {
				var cell string
				if cell, b, err = readString(b); err != nil {
					return nil, err
				}
				row = append(row, cell)
			}
			r.Rows = append(r.Rows, row)
		}
		if r.OID, b, err = readString(b); err != nil {
			return nil, err
		}
		if r.Plan, b, err = readString(b); err != nil {
			return nil, err
		}
		rs = append(rs, r)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("server: %d trailing bytes after results", len(b))
	}
	return rs, nil
}

// EncodeError encodes a MsgError payload.
func EncodeError(code byte, msg string) []byte {
	return append([]byte{code}, msg...)
}

// DecodeError decodes a MsgError payload.
func DecodeError(b []byte) (code byte, msg string) {
	if len(b) == 0 {
		return ErrCodeGeneric, "unknown error"
	}
	return b[0], string(b[1:])
}
