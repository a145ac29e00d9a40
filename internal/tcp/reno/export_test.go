package reno

// NextSeq returns the next new sequence number to be sent.
func (s *Sender) NextSeq() int64 { return s.nextSeq }
