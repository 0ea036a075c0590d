package server

import "repro/internal/geo/netmetric"

// NetworkMetric returns the road-network metric the server built for
// (grid, seed), or nil if it built none.
func (s *Server) NetworkMetric(grid int, seed int64) *netmetric.NetworkMetric {
	s.netMu.Lock()
	e, ok := s.netMetrics[netKey{grid: grid, seed: seed}]
	s.netMu.Unlock()
	if !ok || !e.done.Load() {
		return nil
	}
	return e.m
}

// SessionTableCells returns the label cells the live session tables
// hold.
func (s *Server) SessionTableCells() int64 { return s.tableCells.Load() }

// SetSessionTableBudget lowers the label cells the server's session
// tables may hold at once. Call it before the server handles a request.
func (s *Server) SetSessionTableBudget(cells int64) { s.tableBudget = cells }
