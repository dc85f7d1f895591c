package musa

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"musa/internal/ring"
)

// This file is the one place artifact blobs cross the wire from the client
// side: GET and PUT /artifact/{key} against a musa-serve (the handlers are
// in internal/serve). Ring peer fetch, ring write-behind replication and
// fleet coordinator pushes all build their request and read their reply
// here, so the timeout, the size limit and the status classification are
// written once; the ring forwarder (internal/ring) carries them.

const (
	// artifactWireWindow bounds one artifact transfer, either direction.
	artifactWireWindow = time.Minute
	// maxWireArtifactBytes bounds one artifact download, mirroring the
	// serve-side PUT bound.
	maxWireArtifactBytes = 256 << 20
)

// artifactHTTP carries the forwarded traffic — artifacts and fleet shards —
// of every client in the process.
var artifactHTTP = &http.Client{}

// jsonHeader is the header of every JSON body a client sends. Read-only.
var jsonHeader = http.Header{"Content-Type": {"application/json"}}

func artifactGet(key string) ring.Request {
	return ring.Request{Method: http.MethodGet, Path: "/artifact/" + key, Timeout: artifactWireWindow}
}

func artifactPut(key string, blob []byte) ring.Request {
	return ring.Request{Method: http.MethodPut, Path: "/artifact/" + key,
		Header: jsonHeader, Body: blob, Timeout: artifactWireWindow}
}

// readArtifact reads the reply to an artifactGet. The bytes are
// unvalidated: callers hand them to ArtifactCache.PutBlob.
func readArtifact(resp *http.Response) ([]byte, error) {
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
		return nil, fmt.Errorf("musa: %s: %s", resp.Request.URL, resp.Status)
	}
	blob, err := io.ReadAll(io.LimitReader(resp.Body, maxWireArtifactBytes+1))
	if err == nil && len(blob) > maxWireArtifactBytes {
		err = fmt.Errorf("musa: %s: exceeds %d bytes", resp.Request.URL, maxWireArtifactBytes)
	}
	return blob, err
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
