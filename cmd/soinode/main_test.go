package main

import (
	"errors"
	"strings"
	"testing"
)

func TestValidateAsyncWindow(t *testing.T) {
	const size = 4
	cases := []struct {
		w       int
		wantErr string // substring of the usage error, "" = accepted
	}{
		{0, ""},
		{1, ""},
		{4, ""},
		{-1, "negative"},
		{-17, "negative"},
		{5, "exceeds the rank count"},
	}
	for _, tc := range cases {
		err := validateAsyncWindow(tc.w, size)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("validateAsyncWindow(%d): unexpected error %v", tc.w, err)
			}
			continue
		}
		var ue *UsageError
		if !errors.As(err, &ue) {
			t.Errorf("validateAsyncWindow(%d): error %v is not a *UsageError", tc.w, err)
			continue
		}
		if ue.Flag != "-async-window" {
			t.Errorf("validateAsyncWindow(%d): usage error names flag %q", tc.w, ue.Flag)
		}
		if !strings.Contains(ue.Reason, tc.wantErr) {
			t.Errorf("validateAsyncWindow(%d): reason %q does not mention %q", tc.w, ue.Reason, tc.wantErr)
		}
	}
}
