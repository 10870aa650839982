package transport

// PeerLen returns how many messages the named sender has queued. Only the
// mailbox property tests read it.
func (m *Mailbox) PeerLen(from string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if pq := m.peers[from]; pq != nil {
		return pq.count
	}
	return 0
}
