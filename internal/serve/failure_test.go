package serve

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestClassifyFailure(t *testing.T) {
	cases := []struct {
		err       error
		reason    string
		retryable bool
	}{
		{context.Canceled, ReasonCanceled, true},
		{fmt.Errorf("running app: %w", context.DeadlineExceeded), ReasonCanceled, true},
		{errors.New(`unknown backend "quantum" (have: dist, elastic, real, sim)`), ReasonSpec, false},
		{errors.New(`app "fft" does not support backend "real" (have: dist, sim)`), ReasonSpec, false},
		{errors.New("dist: world start: 0 of 2 workers attached within 30s"), ReasonBackend, true},
		{errors.New("dist: rank 1 exceeded its restart budget (3 restarts): lost host"), ReasonBackend, true},
		{errors.New("dist: worker for process 2 disconnected"), ReasonBackend, true},
		{errors.New("servetest: induced failure"), ReasonInternal, false},
	}
	for _, tc := range cases {
		fi := classifyFailure(tc.err)
		if fi.Reason != tc.reason || fi.Retryable != tc.retryable {
			t.Errorf("classifyFailure(%v) = %+v, want {%s %v}", tc.err, fi, tc.reason, tc.retryable)
		}
	}
}
