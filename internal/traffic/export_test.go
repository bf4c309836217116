package traffic

// StopNow halts the flow and the source's route-refresh activity.
func (c *CBR) StopNow() {
	if c.ticker != nil {
		c.ticker.Stop()
		c.ticker = nil
	}
	c.router.StopSource(c.cfg.Group)
}
