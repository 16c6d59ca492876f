package snapstore

// PayloadBound exposes the bound AppendSnapshot sizes its writer by.
var PayloadBound = payloadBound
