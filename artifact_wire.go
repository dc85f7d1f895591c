package musa

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"
)

// This file is the one place artifact blobs cross the wire from the client
// side: GET and PUT /artifact/{key} against a musa-serve (the handlers are
// in internal/serve). Ring peer fetch, ring write-behind replication and
// fleet coordinator pushes all go through these two functions, so the
// timeout, the size limit and the status classification are written once.

const (
	// artifactWireWindow bounds one artifact transfer, either direction.
	artifactWireWindow = time.Minute
	// maxWireArtifactBytes bounds one artifact download, mirroring the
	// serve-side PUT bound.
	maxWireArtifactBytes = 256 << 20
)

// artifactHTTP carries the artifact traffic of every client in the process.
var artifactHTTP = &http.Client{}

// getArtifact downloads the encoded artifact under key from base. The
// bytes are unvalidated: callers hand them to ArtifactCache.PutBlob.
func getArtifact(ctx context.Context, base, key string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, artifactWireWindow)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/artifact/"+key, nil)
	if err != nil {
		return nil, err
	}
	resp, err := artifactHTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
		return nil, fmt.Errorf("musa: %s/artifact/%s: %s", base, key, resp.Status)
	}
	blob, err := io.ReadAll(io.LimitReader(resp.Body, maxWireArtifactBytes+1))
	if err == nil && len(blob) > maxWireArtifactBytes {
		err = fmt.Errorf("musa: %s/artifact/%s: exceeds %d bytes", base, key, maxWireArtifactBytes)
	}
	return blob, err
}

// putArtifact uploads one encoded artifact to base's artifact cache.
// unsupported reports that the server cannot take artifacts at all —
// 503 from -no-artifacts, 404/405/501 from a binary predating the
// endpoint — as opposed to a transient failure (transport error, 5xx
// overload) or a this-blob-only rejection (4xx), neither of which should
// write the whole server off.
func putArtifact(ctx context.Context, base, key string, blob []byte) (unsupported bool, err error) {
	ctx, cancel := context.WithTimeout(ctx, artifactWireWindow)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, base+"/artifact/"+key, bytes.NewReader(blob))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := artifactHTTP.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
	switch resp.StatusCode {
	case http.StatusNoContent, http.StatusOK:
		return false, nil
	case http.StatusServiceUnavailable, http.StatusNotFound,
		http.StatusMethodNotAllowed, http.StatusNotImplemented:
		return true, fmt.Errorf("musa: %s/artifact/%s: %s", base, key, resp.Status)
	default:
		return false, fmt.Errorf("musa: %s/artifact/%s: %s", base, key, resp.Status)
	}
}
