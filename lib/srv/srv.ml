(* The concurrent query-serving front-end, mounted on the process's
   one HTTP listener ([Monitor]) as its [front].

   The listener sniffs the first line of a connection: an HTTP request
   line is HTTP (this module owns the /query route; every monitor
   route is served too), any other line starts the line-oriented text
   protocol (one query per line, rows streamed back, a `# status=...`
   trailer per query).  The connection's session thread parses
   requests and submits them to a bounded admission queue; a fixed
   pool of worker threads — each owning its own [Engine] over the
   shared read-only instance — executes them.  A full queue sheds the
   request immediately (HTTP 503 + Retry-After / `# status=busy`):
   explicit backpressure instead of unbounded buffering.  Every
   request carries an absolute deadline measured from admission,
   checked before execution and between result batches, so a query
   that waited out its budget in the queue is never run, and one that
   exceeds it mid-stream stops after shipping partial results.

   Results ship as they are produced: evaluation uses the streaming
   [Source] pipeline and flushes 64-row batches to the socket while
   the query is still running, so time-to-first-row is independent of
   result size.  The response head rides with the first batch and the
   trailer with the last, so a reply of at most one batch is a single
   write; the listener sets TCP_NODELAY, so no batch waits for the
   client's delayed ACK.

   Instrumented end to end: srv_requests_total{route,status},
   srv_request_ns{route} (admission to completion — queue wait
   included, which is what an SLO on served latency must measure) for
   /query and line-protocol requests, srv_queue_depth, srv_shed_total;
   the listener keeps srv_sessions; each executed query journals a
   Qlog event carrying a fresh trace id. *)

type status = S_ok | S_error of string | S_busy | S_deadline

(* --- Jobs and the admission queue ---------------------------------------- *)

type job = {
  run : Engine.t -> unit;  (* executes and writes the response *)
  mutable finished : bool;
  jmu : Mutex.t;
  jcv : Condition.t;
}

type pool = {
  registry : Metrics.t;
  queue_cap : int;
  n_workers : int;
  deadline_ns : int;  (* default per-request budget *)
  mutable stopping : bool;
  queue : job Queue.t;
  qmu : Mutex.t;
  qcv : Condition.t;
  mutable workers : Thread.t list;
  g_depth : Metrics.gauge;
  c_shed : Metrics.counter;
}

let observe ?trace_id t ~route ~status ~ns =
  Metrics.incr
    (Metrics.counter ~registry:t.registry
       ~help:"requests handled by the serving front-end"
       ~labels:[ ("route", route); ("status", string_of_int status) ]
       "srv_requests_total");
  Metrics.observe_ns ?trace_id
    (Metrics.histogram ~registry:t.registry
       ~help:
         "wall nanoseconds per served request, admission to completion \
          (queue wait included)"
       ~labels:[ ("route", route) ]
       "srv_request_ns")
    ns

let set_depth t n = Metrics.set t.g_depth (float_of_int n)

type admission = Admitted of job | Shed

let submit t run =
  Mutex.lock t.qmu;
  if t.stopping || Queue.length t.queue >= t.queue_cap then begin
    Mutex.unlock t.qmu;
    Metrics.incr t.c_shed;
    Shed
  end
  else begin
    let j =
      { run; finished = false; jmu = Mutex.create (); jcv = Condition.create () }
    in
    Queue.push j t.queue;
    set_depth t (Queue.length t.queue);
    Condition.signal t.qcv;
    Mutex.unlock t.qmu;
    Admitted j
  end

let wait_job j =
  Mutex.lock j.jmu;
  while not j.finished do
    Condition.wait j.jcv j.jmu
  done;
  Mutex.unlock j.jmu

let finish_job j =
  Mutex.lock j.jmu;
  j.finished <- true;
  Condition.broadcast j.jcv;
  Mutex.unlock j.jmu

let worker_loop t make_engine () =
  let engine = make_engine () in
  let rec loop () =
    Mutex.lock t.qmu;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.qcv t.qmu
    done;
    if Queue.is_empty t.queue && t.stopping then Mutex.unlock t.qmu
    else begin
      let j = Queue.pop t.queue in
      set_depth t (Queue.length t.queue);
      Mutex.unlock t.qmu;
      (try j.run engine with _ -> ());
      finish_job j;
      loop ()
    end
  in
  loop ()

let depth t =
  Mutex.lock t.qmu;
  let n = Queue.length t.queue in
  Mutex.unlock t.qmu;
  n

(* --- Execution ------------------------------------------------------------ *)

(* The trailer line both protocols end a query response with. *)
let trailer status ~rows ~wall_ns =
  match status with
  | S_ok -> Printf.sprintf "# status=ok rows=%d wall_us=%d\n" rows (wall_ns / 1000)
  | S_deadline ->
      Printf.sprintf "# status=deadline rows=%d wall_us=%d\n" rows
        (wall_ns / 1000)
  | S_busy -> "# status=busy retry_ms=1000\n"
  | S_error msg -> Printf.sprintf "# status=error msg=%S\n" msg

let http_code = function
  | S_ok -> 200
  | S_deadline -> 504
  | S_busy -> 503
  | S_error _ -> 400

(* The streaming-executor memory bound (Thm 8.3) as a live gauge: the
   high-water resident-page mark of the last worker engine to finish a
   query.  The flight recorder's series over it is how CI watches the
   constant-memory claim hold across a whole load run. *)
let g_resident =
  Metrics.gauge
    ~help:"max resident pages observed by a serving worker engine"
    "srv_engine_max_resident_pages"

let tail_outcome = function
  | S_ok -> `Ok
  | S_deadline -> `Deadline
  | S_busy -> `Shed
  | S_error _ -> `Error

(* Rows per streamed batch. *)
let batch_rows = 64

(* Evaluate one query on a worker's engine, appending rows to [out] and
   calling [flush] to ship each full batch of [batch_rows] once the
   next row exists — so a reply of at most one batch is left whole in
   [out] for the caller to send with its trailer.  The deadline is
   checked before every row.  Returns the final status, the rows
   produced, the wall time and the trace id.
   Every request runs force-traced — the completed span tree goes to
   the tail sampler, which decides whether it is worth keeping — and
   journals a Qlog event when the journal is open. *)
let execute engine ~query_text ~deadline_ns ~out ~flush =
  let journal = Qlog.enabled () in
  let tid = Trace.next_trace_id () in
  let stats = Engine.stats engine in
  let reads0 = stats.Io_stats.page_reads
  and writes0 = stats.Io_stats.page_writes in
  let alloc0 = Gc.allocated_bytes () in
  let t0 = Mclock.now_ns () in
  let rows = ref 0 in
  let outcome, span =
    Engine.with_forced_tracing true @@ fun () ->
    Trace.with_trace_id tid @@ fun () ->
    Trace.with_actor "srv" @@ fun () ->
    match
      Trace.with_span_out ~detail:query_text ~stats "serve" (fun () ->
          match
            Qparser.of_string
              ~schema:(Instance.schema (Engine.instance engine))
              query_text
          with
          | exception Qparser.Parse_error msg -> `Parse msg
          | ast ->
              let src = Engine.eval_node_src engine ast in
              let status = ref S_ok in
              (try
                 let rec pump n =
                   if Mclock.now_ns () > deadline_ns then status := S_deadline
                   else
                     match Ext_list.Source.next src with
                     | None -> ()
                     | Some e ->
                         let n =
                           if n < batch_rows then n
                           else if flush () then 0
                           else raise Exit
                         in
                         Buffer.add_string out (Dn.to_string (Entry.dn e));
                         Buffer.add_char out '\n';
                         incr rows;
                         pump (n + 1)
                 in
                 pump 0
               with Exit -> ());
              Trace.set_rows !rows;
              `Ran (ast, !status))
    with
    | `Ran (ast, status), span ->
        if journal then begin
          let ops =
            match span with Some s -> Qlog.ops_of_span s | None -> []
          in
          let out : Qlog.outcome =
            match status with
            | S_ok -> Qlog.Ok
            | S_deadline -> Qlog.Failed "deadline"
            | S_busy -> Qlog.Failed "busy"
            | S_error m -> Qlog.Failed m
          in
          ignore
            (Qlog.record ~trace_id:tid ~ops ~query:query_text
               ~fingerprint:(Plan.fingerprint ast)
               ~result_count:!rows
               ~reads:(stats.Io_stats.page_reads - reads0)
               ~writes:(stats.Io_stats.page_writes - writes0)
               ~wall_ns:(Mclock.now_ns () - t0)
               ~alloc_bytes:(int_of_float (Gc.allocated_bytes () -. alloc0))
               ~outcome:out ())
        end;
        (status, span)
    | `Parse msg, span ->
        if journal then
          ignore
            (Qlog.record ~trace_id:tid ~query:query_text ~fingerprint:"(parse)"
               ~result_count:0 ~reads:0 ~writes:0
               ~wall_ns:(Mclock.now_ns () - t0)
               ~outcome:(Qlog.Failed msg) ());
        (S_error msg, span)
    | exception e -> (S_error (Printexc.to_string e), None)
  in
  let wall = Mclock.now_ns () - t0 in
  Metrics.set g_resident (float_of_int stats.Io_stats.max_resident_pages);
  Option.iter
    (fun s ->
      ignore
        (Tail.consider ~origin:"srv" ~outcome:(tail_outcome outcome)
           ~wall_ns:wall s))
    span;
  (outcome, !rows, wall, tid)

(* A request that never reached a worker engine (shed at admission, or
   its budget died in the queue) still deserves a trace the tail
   sampler can retain: a one-node span with a fresh trace id, so the
   503/504 shows up in `/tail` and as an exemplar like any slow
   request. *)
let synthetic_span ~name ~detail ~wall_ns : Trace.span =
  {
    Trace.name;
    detail;
    trace_id = Trace.next_trace_id ();
    actor = "srv";
    start_ns = Mclock.now_ns () - wall_ns;
    elapsed_ns = wall_ns;
    io = Io_stats.create ();
    alloc_bytes = 0;
    rows = None;
    children = [];
  }

(* Admit, execute on a worker, stream to the socket, account.  The
   calling session thread blocks until the worker finishes, preserving
   request order within a connection. *)
let serve_query t fd ~route ~write_head ~deadline_ns query_text =
  let submitted = Mclock.now_ns () in
  let absolute_deadline = submitted + deadline_ns in
  (* Shed at admission (busy), or the budget died in the queue
     (deadline): answer without running, under a synthetic span. *)
  let refuse status name =
    let wall = Mclock.now_ns () - submitted in
    let sp = synthetic_span ~name ~detail:query_text ~wall_ns:wall in
    ignore
      (Tail.consider ~origin:"srv" ~outcome:(tail_outcome status) ~wall_ns:wall
         sp);
    ignore
      (Sockio.write_all fd
         (write_head status ^ trailer status ~rows:0 ~wall_ns:wall));
    observe ~trace_id:sp.Trace.trace_id t ~route ~status:(http_code status)
      ~ns:wall
  in
  let run engine =
    if Mclock.now_ns () > absolute_deadline then
      refuse S_deadline "queue-deadline"
    else begin
      (* The head is staged ahead of the rows: it leaves with the first
         batch, and a reply of at most one batch (head, rows, trailer)
         is a single write. *)
      let out = Buffer.create 1024 in
      Buffer.add_string out (write_head S_ok);
      let flush () =
        let ok = Sockio.write_all fd (Buffer.contents out) in
        Buffer.clear out;
        ok
      in
      let status, rows, _exec_ns, tid =
        execute engine ~query_text ~deadline_ns:absolute_deadline ~out ~flush
      in
      let wall = Mclock.now_ns () - submitted in
      if rows = 0 then begin
        (* nothing was produced, so the head can carry the outcome *)
        Buffer.clear out;
        Buffer.add_string out (write_head status)
      end;
      Buffer.add_string out (trailer status ~rows ~wall_ns:wall);
      ignore (Sockio.write_all fd (Buffer.contents out));
      observe ~trace_id:tid t ~route ~status:(http_code status) ~ns:wall
    end
  in
  match submit t run with
  | Admitted j -> wait_job j
  | Shed -> refuse S_busy "shed"

(* --- The HTTP face --------------------------------------------------------- *)

(* Streamed /query head: no Content-Length, the body is EOF-delimited;
   busy additionally advertises Retry-After, the explicit backpressure
   contract. *)
let query_head status =
  let headers = match status with S_busy -> [ ("Retry-After", "1") ] | _ -> [] in
  Monitor.http_head ~content_type:"text/plain; charset=utf-8" ~headers
    (http_code status)

(* The /query route: GET ?q= or POST the query text, optional
   deadline_ms. *)
let serve_http t fd ~meth ~params ~body =
  let reply status text =
    let t0 = Mclock.now_ns () in
    Monitor.write_response fd ~head_only:(meth = "HEAD")
      (Monitor.respond ~status text);
    observe t ~route:"/query" ~status ~ns:(Mclock.now_ns () - t0)
  in
  match meth with
  | "GET" | "POST" -> (
      let query_text =
        String.trim
          (if body <> "" then body
           else Option.value ~default:"" (List.assoc_opt "q" params))
      in
      let deadline_ns =
        match
          Option.bind (List.assoc_opt "deadline_ms" params) int_of_string_opt
        with
        | Some ms when ms > 0 -> ms * 1_000_000
        | _ -> t.deadline_ns
      in
      match query_text with
      | "" ->
          reply 400 "missing query: GET /query?q=... or POST the query text\n"
      | q ->
          serve_query t fd ~route:"/query" ~write_head:query_head ~deadline_ns
            q)
  | meth -> reply 405 (Printf.sprintf "method %s not allowed\n" meth)

(* --- The line-protocol face ------------------------------------------------ *)

(* No HTTP head: the write_head hook contributes nothing, the trailer
   alone reports status. *)
let line_head _status = ""

(* Reads poll (the listener sets a short receive timeout) so an idle
   session notices [stopping] and exits promptly. *)
let handle_line_session t fd r first_line =
  let read_line () = Sockio.read_line ~on_timeout:(fun () -> not t.stopping) r in
  let deadline = ref t.deadline_ns in
  let handle line =
    match String.trim line with
    | "" -> true
    | "PING" -> Sockio.write_all fd "PONG\n"
    | "QUIT" | "BYE" -> false
    | line when String.length line > 9 && String.sub line 0 9 = "DEADLINE " -> (
        match int_of_string_opt (String.trim (String.sub line 9 (String.length line - 9))) with
        | Some ms when ms > 0 ->
            deadline := ms * 1_000_000;
            Sockio.write_all fd "OK\n"
        | _ -> Sockio.write_all fd "# status=error msg=\"bad DEADLINE\"\n")
    | query ->
        serve_query t fd ~route:"line" ~write_head:line_head
          ~deadline_ns:!deadline query;
        true
  in
  let rec loop line =
    if handle line && not t.stopping then
      match read_line () with None -> () | Some l -> loop l
  in
  loop first_line

(* --- Lifecycle ------------------------------------------------------------- *)

type t = { pool : pool; listener : Monitor.t }

let start ?(registry = Metrics.default) ?(workers = 4) ?(queue = 64)
    ?(deadline_ms = 5_000) ?(port = 0) ~make_engine () =
  if workers < 1 then invalid_arg "Srv.start: workers must be positive";
  if queue < 1 then invalid_arg "Srv.start: queue must be positive";
  let pool =
    {
      registry;
      queue_cap = queue;
      n_workers = workers;
      deadline_ns = deadline_ms * 1_000_000;
      stopping = false;
      queue = Queue.create ();
      qmu = Mutex.create ();
      qcv = Condition.create ();
      workers = [];
      g_depth =
        Metrics.gauge ~registry ~help:"requests waiting in the admission queue"
          "srv_queue_depth";
      c_shed =
        Metrics.counter ~registry
          ~help:"requests shed because the admission queue was full"
          "srv_shed_total";
    }
  in
  let listener =
    Monitor.start ~registry ~port
      ~front:
        {
          Monitor.query = serve_http pool;
          lines = handle_line_session pool;
          health =
            (fun () ->
              [
                ("workers", Json.Num (float_of_int workers));
                ("queue_depth", Json.Num (float_of_int (depth pool)));
              ]);
        }
      ()
  in
  pool.workers <-
    List.init workers (fun _ -> Thread.create (worker_loop pool make_engine) ());
  { pool; listener }

let port t = Monitor.port t.listener
let workers t = t.pool.n_workers
let queue_capacity t = t.pool.queue_cap
let queue_depth t = depth t.pool
let session_count t = Monitor.session_count t.listener

let stop { pool = t; listener } =
  if not t.stopping then begin
    (* From here admission sheds; workers drain what was admitted, then
       exit, and only then are the sessions waiting on them ended. *)
    t.stopping <- true;
    Mutex.lock t.qmu;
    Condition.broadcast t.qcv;
    Mutex.unlock t.qmu;
    List.iter Thread.join t.workers;
    Monitor.stop listener
  end
