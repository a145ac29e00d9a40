package sack

// NextSeq returns the next new sequence to be sent.
func (s *Sender) NextSeq() int64 { return s.nextSeq }

// DupThresh returns the current duplicate-ACK threshold (the DSACK
// policies move it).
func (s *Sender) DupThresh() int { return s.dupThresh }
