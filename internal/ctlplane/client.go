package ctlplane

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Client reads a control plane: each call is one GET bounded by the HTTP
// client's timeout. A failed read is the caller's to repeat (meshstat
// -watch polls again on its next tick).
type Client struct {
	// Base is the server's base URL ("http://127.0.0.1:8080").
	Base string
	// HTTPClient defaults to a 5 s-timeout client.
	HTTPClient *http.Client
}

// NewClient builds a client with a 5 s request timeout.
func NewClient(base string) *Client {
	return &Client{
		Base:       strings.TrimRight(base, "/"),
		HTTPClient: &http.Client{Timeout: 5 * time.Second},
	}
}

// APIError is a non-2xx server response.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("ctlplane: server returned %d: %s", e.Status, e.Message)
}

// get fetches path and decodes the success response body into out.
func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return fmt.Errorf("ctlplane: %w", err)
	}
	resp, err := c.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		msg := strings.TrimSpace(string(data))
		var ae apiError
		if json.Unmarshal(data, &ae) == nil && ae.Error != "" {
			msg = ae.Error
		}
		return &APIError{Status: resp.StatusCode, Message: msg}
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("ctlplane: decode %s response: %w", path, err)
	}
	return nil
}

// Stats fetches the cumulative counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var out Stats
	err := c.get(ctx, "/stats", &out)
	return out, err
}

// Health fetches the health verdict (a degraded verdict is a successful
// call; only transport or server failures error).
func (c *Client) Health(ctx context.Context) (Health, error) {
	var out Health
	err := c.get(ctx, "/health", &out)
	return out, err
}
