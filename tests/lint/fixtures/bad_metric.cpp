// metric-name fixture: scanned lexically by lint_test, never compiled.
// Expected findings (no extra prefixes registered): two grammar
// violations and four unregistered prefixes; registering "colstore"
// clears exactly one of the latter.
void instrumented(void* log, void* log2) {
  OBS_COUNT("serve.Requests_Total", 1);             // grammar: uppercase
  OBS_HIST_MS("frob.latency_ms", 1.0);              // prefix: frob
  OBS_GAUGE_ADD("pool.queue_depth", 1);             // ok: built-in prefix
  OBS_EVENT(log, Info, "widget.query").kv("op", "x");  // prefix: widget
  OBS_HIST_MS("colstore.decode_ms", 2.0);  // prefix, unless registered
  OBS_COUNT("nodot", 1);                   // grammar: single segment
  ivt::obs::EventRecord record(log2, ivt::obs::EventLevel::Warn,
                               "gadget.slow");      // prefix: gadget
  // OBS_COUNT("comments.dont_match", 1);
}
