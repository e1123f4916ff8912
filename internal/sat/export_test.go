package sat

// SetNoiseSeed sets the activity noise of every solver built or reset
// afterwards (see noiseSeed); 0 turns it off. Call it only while no
// solver is running.
func SetNoiseSeed(seed uint64) { noiseSeed = seed }
