package snapstore

// PayloadBound exposes the bound AppendSnapshot sizes its writer by.
var PayloadBound = payloadBound

// AppendState writes the payload of a snapshot image, so tests can encode
// an image they have damaged.
var AppendState = appendState
