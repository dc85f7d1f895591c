package musa

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"musa/internal/ring"
)

// This file is the one place artifact blobs cross the wire from the client
// side: fleet coordinator pushes, PUT /artifact/{key} against a `musa serve`
// (the handlers are in internal/serve). The request and the classification
// of its reply are written once; the ring forwarder (internal/ring) carries
// them.

// artifactWireWindow bounds one artifact upload.
const artifactWireWindow = time.Minute

// artifactHTTP carries the forwarded traffic — artifacts and fleet shards —
// of every client in the process.
var artifactHTTP = &http.Client{}

// jsonHeader is the header of every JSON body a client sends. Read-only.
var jsonHeader = http.Header{"Content-Type": {"application/json"}}

func artifactPut(key string, blob []byte) ring.Request {
	return ring.Request{Method: http.MethodPut, Path: "/artifact/" + key,
		Header: jsonHeader, Body: blob, Timeout: artifactWireWindow}
}

// putOutcome classifies the reply to an artifactPut. unsupported reports
// that the server cannot take artifacts at all — 503 from -no-artifacts,
// 404/405/501 from a binary predating the endpoint — as opposed to a
// transient failure (5xx overload) or a this-blob-only rejection (4xx),
// neither of which should write the whole server off.
func putOutcome(resp *http.Response) (unsupported bool, err error) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
	switch resp.StatusCode {
	case http.StatusNoContent, http.StatusOK:
		return false, nil
	case http.StatusServiceUnavailable, http.StatusNotFound,
		http.StatusMethodNotAllowed, http.StatusNotImplemented:
		return true, fmt.Errorf("musa: %s: %s", resp.Request.URL, resp.Status)
	default:
		return false, fmt.Errorf("musa: %s: %s", resp.Request.URL, resp.Status)
	}
}
