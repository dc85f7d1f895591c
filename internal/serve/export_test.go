package serve

import (
	"io"
	"log"
)

// SetErrorLog redirects server-side error logging (nil discards it).
func SetErrorLog(l *log.Logger) {
	if l == nil {
		l = log.New(io.Discard, "", 0)
	}
	errorLog = l
}
