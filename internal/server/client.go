package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"dlearn"
	"dlearn/internal/observe"
	"dlearn/internal/server/wire"
)

// Backoff configures the client's retry policy: capped exponential backoff
// with seeded jitter. The zero value disables retries entirely.
type Backoff struct {
	// Retries is how many retry attempts follow the first try; zero disables
	// retrying.
	Retries int
	// Base is the first retry's delay, doubling per attempt. Zero means
	// 200ms when Retries is positive.
	Base time.Duration
	// Max caps the delay an attempt may wait (after the server's Retry-After,
	// which is always honored in full). Zero means 5 seconds.
	Max time.Duration
	// Seed drives the jitter deterministically, so a scripted run retries at
	// reproducible instants. Zero means 1.
	Seed int64
}

func (b Backoff) base() time.Duration {
	if b.Base <= 0 {
		return 200 * time.Millisecond
	}
	return b.Base
}

func (b Backoff) max() time.Duration {
	if b.Max <= 0 {
		return 5 * time.Second
	}
	return b.Max
}

// Client talks to a dlearn-serve instance over its HTTP API. It is what
// dlearn-learn's -remote flag and the end-to-end tests use, so client and
// server always share the same wire codec.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Tenant, when non-empty, is sent as the X-Tenant header.
	Tenant string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Retry enables retrying: Submit retries admission rejections (429/503,
	// honoring Retry-After), and Learn reconnects a dropped event stream with
	// Last-Event-ID, resuming where it left off. The zero value disables
	// both.
	Retry Backoff

	// sleep waits between attempts; tests stub it to run instantly. Nil
	// means a real timer wait that respects ctx.
	sleep func(context.Context, time.Duration) error

	jitterMu sync.Mutex
	jitter   *rand.Rand
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// delay computes the wait before retry attempt (1-based): capped exponential
// backoff from the policy with ±25% seeded jitter, never less than the
// server's Retry-After hint.
func (c *Client) delay(attempt int, retryAfter time.Duration) time.Duration {
	d := c.Retry.base() << (attempt - 1)
	if max := c.Retry.max(); d > max || d <= 0 { // <<-overflow guard
		d = max
	}
	c.jitterMu.Lock()
	if c.jitter == nil {
		seed := c.Retry.Seed
		if seed == 0 {
			seed = 1
		}
		c.jitter = rand.New(rand.NewSource(seed))
	}
	d += time.Duration((c.jitter.Float64() - 0.5) * 0.5 * float64(d))
	c.jitterMu.Unlock()
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// wait sleeps for d or until ctx is cancelled.
func (c *Client) wait(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		return c.sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *Client) do(ctx context.Context, method, path string, body io.Reader, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Tenant != "" {
		req.Header.Set("X-Tenant", c.Tenant)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return decodeAPIError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// APIError is a non-2xx response from the server.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the parsed Retry-After header of a 429/503 response,
	// zero when absent.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.StatusCode, e.Message)
}

// retryable reports whether the rejection is transient: the server said
// "not now" (queue full, tenant cap, draining), not "never".
func (e *APIError) retryable() bool {
	return e.StatusCode == http.StatusTooManyRequests ||
		e.StatusCode == http.StatusServiceUnavailable
}

func decodeAPIError(resp *http.Response) error {
	var body struct {
		Error string `json:"error"`
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	if json.Unmarshal(raw, &body) != nil || body.Error == "" {
		body.Error = string(bytes.TrimSpace(raw))
	}
	apiErr := &APIError{StatusCode: resp.StatusCode, Message: body.Error}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
		apiErr.RetryAfter = time.Duration(secs) * time.Second
	}
	return apiErr
}

// Submit posts a problem and returns the accepted job. With retries enabled
// (Client.Retry), transient admission rejections — 429 queue-full or
// tenant-cap, 503 draining — are retried with capped exponential backoff,
// honoring the server's Retry-After hint. Transport errors are NOT retried:
// a POST that died mid-flight may have been admitted, and resubmitting it
// blind could run the job twice.
func (c *Client) Submit(ctx context.Context, p wire.Problem) (wire.JobAccepted, error) {
	data, err := json.Marshal(p)
	if err != nil {
		return wire.JobAccepted{}, err
	}
	var acc wire.JobAccepted
	for attempt := 0; ; attempt++ {
		err = c.do(ctx, http.MethodPost, "/v1/jobs", bytes.NewReader(data), &acc)
		var apiErr *APIError
		if err == nil || attempt >= c.Retry.Retries ||
			!errors.As(err, &apiErr) || !apiErr.retryable() {
			return acc, err
		}
		if werr := c.wait(ctx, c.delay(attempt+1, apiErr.RetryAfter)); werr != nil {
			return acc, err
		}
	}
}

// Status fetches a job's status.
func (c *Client) Status(ctx context.Context, id string) (wire.JobStatus, error) {
	var st wire.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Cancel cancels a job.
func (c *Client) Cancel(ctx context.Context, id string) (wire.JobStatus, error) {
	var st wire.JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Stats fetches the server counters.
func (c *Client) Stats(ctx context.Context) (wire.Stats, error) {
	var st wire.Stats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// StreamFrom follows a job's SSE stream, invoking fn per event until the
// stream ends (the server closes it after the terminal event) or fn errors.
// A non-empty lastEventID resumes after that event (sent as the
// Last-Event-ID header, so the server replays only what this client has not
// yet seen); an empty one reads the stream from the beginning.
func (c *Client) StreamFrom(ctx context.Context, id, lastEventID string, fn func(SSEEvent) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	if c.Tenant != "" {
		req.Header.Set("X-Tenant", c.Tenant)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeAPIError(resp)
	}
	return ReadSSE(resp.Body, fn)
}

// Learn runs a problem remotely end to end: submit, follow the stream
// (forwarding decoded observer events to onEvent, which may be nil), and
// return the terminal result. A terminal "error" event — including a
// cancellation — is returned as a *RemoteJobError.
//
// With retries enabled (Client.Retry), a stream that drops before its
// terminal event — the connection broke, or the server shed this client as
// too slow — is reconnected with Last-Event-ID, so the replay resumes after
// the last event already seen and no event is delivered twice. The retry
// budget resets whenever a reconnect makes progress; only consecutive
// fruitless reconnects exhaust it. Safe because GET is idempotent and the
// job keeps running server-side regardless of who is watching.
func (c *Client) Learn(ctx context.Context, p *dlearn.Problem, opts wire.Options, onEvent func(dlearn.Event)) (wire.Result, error) {
	wp := wire.EncodeProblem(p)
	wp.Options = opts
	acc, err := c.Submit(ctx, wp)
	if err != nil {
		return wire.Result{}, err
	}
	var (
		result   wire.Result
		terminal bool
		lastID   string
	)
	handle := func(ev SSEEvent) error {
		if ev.ID != "" {
			lastID = ev.ID
		}
		switch ev.Name {
		case wire.EventResult:
			if err := json.Unmarshal(ev.Data, &result); err != nil {
				return &streamDecodeError{event: wire.EventResult, err: err}
			}
			terminal = true
		case wire.EventError:
			var je wire.JobError
			if err := json.Unmarshal(ev.Data, &je); err != nil {
				return &streamDecodeError{event: wire.EventError, err: err}
			}
			return &RemoteJobError{State: je.State, Message: je.Error}
		default:
			if onEvent != nil {
				if oe, err := observe.UnmarshalEvent(ev.Data); err == nil {
					onEvent(oe)
				}
			}
		}
		return nil
	}
	for attempt := 0; ; attempt++ {
		before := lastID
		err = c.StreamFrom(ctx, acc.ID, lastID, handle)
		if terminal && err == nil {
			return result, nil
		}
		if err != nil && !streamRetryable(err) {
			return wire.Result{}, err
		}
		// The stream ended (or broke) without a terminal event: the server
		// dropped us, or the connection did. Progress resets the budget.
		if lastID != before {
			attempt = 0
		}
		if attempt >= c.Retry.Retries {
			if err == nil {
				err = fmt.Errorf("job %s: event stream ended without a terminal event", acc.ID)
			}
			return wire.Result{}, err
		}
		if werr := c.wait(ctx, c.delay(attempt+1, 0)); werr != nil {
			return wire.Result{}, werr
		}
	}
}

// streamRetryable classifies a stream error for the reconnect loop.
// Transport-level failures are retryable: the job keeps running server-side,
// so watching it again can only help. A *RemoteJobError is the job's real
// outcome and a decode error is a protocol bug — neither is cured by
// reconnecting — and an API rejection other than a transient 429/503 (say, a
// 404 after the server lost the job) will never succeed.
func streamRetryable(err error) bool {
	var remoteErr *RemoteJobError
	if errors.As(err, &remoteErr) {
		return false
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.retryable()
	}
	var decodeErr *streamDecodeError
	return !errors.As(err, &decodeErr)
}

// RemoteJobError reports a job that finished in a failed or cancelled state.
type RemoteJobError struct {
	State   string
	Message string
}

func (e *RemoteJobError) Error() string {
	return fmt.Sprintf("remote job %s: %s", e.State, e.Message)
}

// streamDecodeError reports a terminal event whose payload did not decode —
// a protocol-level failure the reconnect loop must not retry.
type streamDecodeError struct {
	event string
	err   error
}

func (e *streamDecodeError) Error() string {
	return fmt.Sprintf("decoding %s event: %v", e.event, e.err)
}

func (e *streamDecodeError) Unwrap() error { return e.err }
