(** The concurrent query-serving front-end: L0–L3 query text executed
    on a fixed worker pool over the shared read-only instance, served
    from a {!Monitor} listener that this module mounts itself on.

    One listening port speaks both protocols, sniffed on the first
    line of each connection:

    - {b HTTP/1.1}: [GET /query?q=<query>] or [POST /query] with the
      query text as the body (at most 1 MiB, else [413]); optional
      [deadline_ms] query parameter.  The response streams result rows
      (one DN per line) EOF-delimited — no [Content-Length] — and ends
      with a [# status=...] trailer line.  Other methods on [/query]
      get [405], a missing query [400].  Every {!Monitor} route is
      served on the same port: [/] (index, [/query] included),
      [/healthz] (liveness JSON, with [workers], [queue_depth] and
      [sessions]), [/metrics], [/alerts], [/dashboard], [/range],
      [/trace], [/tail], [/slowlog], [/planstats] and [/workload].
    - {b Line protocol}: one query per line; rows stream back, each
      response ending with the same trailer.  [PING] answers [PONG],
      [DEADLINE <ms>] sets the session's deadline, [QUIT]/[BYE] closes.
      A line-protocol client may idle before its first line; an HTTP
      request must be complete within 2 s of its request line.

    The trailer is one of
    [# status=ok rows=<n> wall_us=<n>],
    [# status=deadline rows=<n> wall_us=<n>] (partial rows shipped),
    [# status=busy retry_ms=<n>] (shed at admission; HTTP also sends
    [503 Service Unavailable] + [Retry-After]; an expired budget with
    no rows shipped is [504 Gateway Timeout]) or
    [# status=error msg="..."].

    Concurrency model: the listener's session thread per connection
    parses requests and submits them to a bounded admission queue;
    [workers] worker threads — each owning its own {!Engine} built by
    [make_engine] — execute and stream results back.  A full queue
    sheds instead of buffering (explicit backpressure).  Deadlines are
    absolute from admission: a request whose budget died waiting is
    not executed, and one exceeding it mid-stream stops after the rows
    already shipped.

    Transport: accepted sockets set [TCP_NODELAY].  Rows stream in
    64-row batches; the head leaves with the first batch and the
    trailer with the last, so a reply of at most 64 rows is one write.
    Request lines longer than {!Sockio.max_line} end the session.

    Observability: [srv_requests_total{route,status}] and
    [srv_request_ns{route}] (admission → completion, queue wait
    included) count [/query] and line-protocol requests; every other
    route counts in the listener's [monitor_requests_total] and
    [monitor_request_ns].  [srv_queue_depth], [srv_sessions] and
    [srv_shed_total] live in the given registry too; every executed
    query records a {!Qlog} event carrying a fresh trace id.
    {!Alerts.install_defaults} includes SLO rules over the latency
    histogram and the shed rate. *)

type t

val start :
  ?registry:Metrics.t ->
  ?workers:int ->
  ?queue:int ->
  ?deadline_ms:int ->
  ?port:int ->
  make_engine:(unit -> Engine.t) ->
  unit ->
  t
(** Bind the loopback interface and start serving.  [workers] (default
    4) worker threads each call [make_engine] once at startup — hand
    out engines sharing one immutable {!Instance}; [queue] (default
    64) bounds the admission queue; [deadline_ms] (default 5000) is
    the per-request budget; [port] 0 (the default) picks a free port —
    see {!port}.  [SIGPIPE] is ignored from here on
    ({!Sockio.ignore_sigpipe}): a client hanging up mid-reply ends its
    session, not the process.
    @raise Unix.Unix_error when the port is taken.
    @raise Invalid_argument when [workers] or [queue] is not positive. *)

val port : t -> int
val workers : t -> int
val queue_capacity : t -> int

val queue_depth : t -> int
(** Requests waiting for a worker right now. *)

val session_count : t -> int
(** Live connections right now. *)

val stop : t -> unit
(** Stop accepting, drain admitted requests, join every worker and
    session thread, close every socket.  Idempotent. *)
