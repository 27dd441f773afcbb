package tokenize

// ReferenceTokenize exposes the differential oracle to the external
// test package, which can import the CRF and the trained parser.
var ReferenceTokenize = referenceTokenize
