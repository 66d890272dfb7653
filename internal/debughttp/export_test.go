package debughttp

// ShutdownTimeout exposes the stop drain bound to the external tests,
// which import resolvesvc and so cannot live in this package.
const ShutdownTimeout = shutdownTimeout
