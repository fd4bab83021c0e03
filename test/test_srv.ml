(* The serving front-end: differential concurrency against the
   single-threaded semantics oracle, both protocol faces, admission
   shedding and deadline expiry. *)

let mk_instance ?(size = 300) ?(seed = 11) () =
  Dif_gen.generate
    ~params:{ Dif_gen.default_params with seed; size }
    ()

let start_srv ?registry ?(workers = 4) ?(queue = 64) ?deadline_ms instance =
  Srv.start ?registry ~workers ~queue ?deadline_ms
    ~make_engine:(fun () -> Engine.create ~block:32 instance)
    ()

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let url_encode s =
  String.concat ""
    (List.map
       (function
         | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.') as c ->
             String.make 1 c
         | c -> Printf.sprintf "%%%02X" (Char.code c))
       (List.of_seq (String.to_seq s)))

let with_srv ?registry ?workers ?queue ?deadline_ms instance f =
  let srv = start_srv ?registry ?workers ?queue ?deadline_ms instance in
  Fun.protect ~finally:(fun () -> Srv.stop srv) (fun () -> f srv)

(* N client threads, each its own connection, racing distinct query
   streams through a shared worker pool: every reply must equal the
   single-threaded oracle, rows in canonical order. *)
let test_differential_concurrency () =
  let instance = mk_instance () in
  let n_clients = 8 and per_client = 25 in
  let asts =
    Query_mix.generate_ast ~seed:42 ~count:(n_clients * per_client) instance
  in
  with_srv instance (fun srv ->
      let port = Srv.port srv in
      let failures = ref [] in
      let fmu = Mutex.create () in
      let client c =
        let conn = Srv_client.connect ~port () in
        Fun.protect
          ~finally:(fun () -> Srv_client.close conn)
          (fun () ->
            for i = 0 to per_client - 1 do
              let k = (c * per_client) + i in
              let ast = asts.(k) in
              let text = Qprinter.to_string ast in
              let reply = Srv_client.query conn text in
              let expected = Testkit.dns_of (Testkit.oracle instance ast) in
              let ok =
                reply.Srv_client.status = Srv_client.Ok
                && reply.Srv_client.rows = expected
              in
              if not ok then begin
                Mutex.lock fmu;
                failures := (k, text) :: !failures;
                Mutex.unlock fmu
              end
            done)
      in
      let threads = List.init n_clients (fun c -> Thread.create client c) in
      List.iter Thread.join threads;
      (match !failures with
      | [] -> ()
      | (k, text) :: _ ->
          Alcotest.failf "%d replies diverged from the oracle; first: #%d %s"
            (List.length !failures) k text);
      (* a session thread leaves the table when it reads the client's
         close, which can land just after the client returns: give the
         threads a bounded moment to exit *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      while Srv.session_count srv > 0 && Unix.gettimeofday () < deadline do
        Thread.delay 0.01
      done;
      Alcotest.(check int) "no sessions linger" 0 (Srv.session_count srv))

(* The HTTP face: index, liveness, query streaming (GET and POST),
   parse errors, unknown routes, missing parameters. *)
let test_http_routes () =
  let instance = mk_instance () in
  with_srv instance (fun srv ->
      let port = Srv.port srv in
      let get path = Monitor.request ~port path in
      let status, _, body = get "/" in
      Alcotest.(check int) "index status" 200 status;
      Alcotest.(check bool) "index mentions /query" true
        (contains ~affix:"/query" body);
      let status, _, body = get "/healthz" in
      Alcotest.(check int) "healthz status" 200 status;
      (match Json.member "queue_depth" (Json.of_string body) with
      | Json.Num _ -> ()
      | _ -> Alcotest.fail "healthz carries queue_depth");
      let q = "( ? sub ? id=* )" in
      let status, headers, body = get ("/query?q=" ^ url_encode q) in
      Alcotest.(check int) "GET /query status" 200 status;
      Alcotest.(check bool) "streamed (no Content-Length)" false
        (List.mem_assoc "content-length" headers);
      Alcotest.(check bool) "GET trailer ok" true
        (contains ~affix:"# status=ok" body);
      let n_rows =
        List.length
          (List.filter
             (fun l -> l <> "" && l.[0] <> '#')
             (String.split_on_char '\n' body))
      in
      let expected =
        List.length
          (Testkit.oracle instance
             (Ast.Atomic
                {
                  Ast.base = Dn.root;
                  scope = Ast.Sub;
                  filter = Afilter.Present "id";
                }))
      in
      Alcotest.(check int) "GET /query row count" expected n_rows;
      let status, _, body = Monitor.request ~meth:"POST" ~body:q ~port "/query" in
      Alcotest.(check int) "POST /query status" 200 status;
      Alcotest.(check bool) "POST trailer ok" true
        (contains ~affix:"# status=ok" body);
      let status, _, body = get "/query?q=%28%20nonsense" in
      Alcotest.(check int) "parse error is a 400" 400 status;
      Alcotest.(check bool) "parse error trailer" true
        (contains ~affix:"# status=error" body);
      let status, _, _ = get "/nope" in
      Alcotest.(check int) "unknown route" 404 status;
      let status, _, _ = get "/query" in
      Alcotest.(check int) "missing q" 400 status)

(* HEAD on the serving port answers like GET — same status, same
   Content-Length — with the body withheld. *)
let test_http_head () =
  let instance = mk_instance ~size:50 () in
  with_srv instance (fun srv ->
      let port = Srv.port srv in
      List.iter
        (fun path ->
          let gstatus, gheaders, _ = Monitor.request ~port path in
          let hstatus, hheaders, hbody =
            Monitor.request ~meth:"HEAD" ~port path
          in
          Alcotest.(check int) (path ^ " HEAD status = GET") gstatus hstatus;
          Alcotest.(check (option string))
            (path ^ " HEAD Content-Length = GET")
            (List.assoc_opt "content-length" gheaders)
            (List.assoc_opt "content-length" hheaders);
          Alcotest.(check string) (path ^ " HEAD body") "" hbody)
        [ "/healthz"; "/" ])

(* Send [request] verbatim on a fresh connection; return the response's
   status line. *)
let status_line ~port request =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.setsockopt_float s Unix.SO_RCVTIMEO 10.;
      Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      ignore (Sockio.write_all s request);
      Option.value ~default:"" (Sockio.read_line (Sockio.reader s)))

let heavy = "( d ( ? sub ? id=* ) ( ? sub ? id=* ) )"

let get_query ?(params = "") q =
  Printf.sprintf "GET /query?q=%s%s HTTP/1.1\r\nHost: x\r\n\r\n"
    (url_encode q) params

(* A shed reply and a deadline reply carry their own reason phrases
   (the 1-worker / 1-slot and 1 ms setups of the backpressure tests). *)
let test_http_reason_phrases () =
  with_srv ~workers:1 ~queue:1 (mk_instance ~size:800 ()) (fun srv ->
      let port = Srv.port srv in
      let lines = ref [] and lmu = Mutex.create () in
      let rounds = ref 0 in
      while
        (not (List.exists (String.starts_with ~prefix:"HTTP/1.1 503") !lines))
        && !rounds < 5
      do
        incr rounds;
        let one () =
          let l = try status_line ~port (get_query heavy) with _ -> "" in
          Mutex.protect lmu (fun () -> lines := l :: !lines)
        in
        List.iter Thread.join (List.init 12 (fun _ -> Thread.create one ()))
      done;
      Alcotest.(check bool) "shed is 503 Service Unavailable" true
        (List.mem "HTTP/1.1 503 Service Unavailable" !lines));
  with_srv (mk_instance ~size:3000 ~seed:5 ()) (fun srv ->
      let port = Srv.port srv in
      let lines =
        List.init 3 (fun _ ->
            status_line ~port (get_query ~params:"&deadline_ms=1" heavy))
      in
      Alcotest.(check bool) "expired budget is 504 Gateway Timeout" true
        (List.mem "HTTP/1.1 504 Gateway Timeout" lines))

(* An HTTP head that stalls after its request line, or that never ends,
   loses its session within the head deadline (2 s, reads polled every
   0.5 s); the session table empties. *)
let test_http_head_bounded () =
  let instance = mk_instance ~size:50 () in
  with_srv instance (fun srv ->
      let port = Srv.port srv in
      let closes_within label send =
        let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt_float s Unix.SO_RCVTIMEO 10.;
        Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        let t0 = Unix.gettimeofday () in
        let sender = Thread.create send s in
        let buf = Bytes.create 4096 in
        let rec ended () =
          match Unix.read s buf 0 (Bytes.length buf) with
          | 0 -> true
          | _ -> ended ()
          | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
          | exception Unix.Unix_error _ -> false
        in
        let ended = ended () in
        let wall = Unix.gettimeofday () -. t0 in
        (try Unix.shutdown s Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        Thread.join sender;
        Unix.close s;
        if not (ended && wall < 4.) then
          Alcotest.failf "%s: session still open after %.1f s" label wall
      in
      closes_within "request line, then nothing" (fun s ->
          ignore (Sockio.write_all s "GET / HTTP/1.1\r\n"));
      closes_within "endless header lines" (fun s ->
          let line = "X-Filler: " ^ String.make 90 'a' ^ "\r\n" in
          let rec go n =
            if n > 0 && Sockio.write_all s line then go (n - 1)
          in
          ignore (Sockio.write_all s "GET / HTTP/1.1\r\n");
          go 10_000);
      let deadline = Unix.gettimeofday () +. 5.0 in
      while Srv.session_count srv > 0 && Unix.gettimeofday () < deadline do
        Thread.delay 0.01
      done;
      Alcotest.(check int) "no sessions linger" 0 (Srv.session_count srv))

(* A POST body over the 1 MiB bound is refused whole: 413, with
   Content-Length. *)
let test_http_body_bound () =
  let instance = mk_instance ~size:50 () in
  with_srv instance (fun srv ->
      let status, headers, _ =
        Monitor.request ~meth:"POST"
          ~body:(String.make (1_048_576 + 1) ' ')
          ~port:(Srv.port srv) "/query"
      in
      Alcotest.(check int) "oversized body" 413 status;
      Alcotest.(check bool) "413 has Content-Length" true
        (List.mem_assoc "content-length" headers))

(* The serving port is also the monitor: its routes answer there, with
   the same method rules. *)
let test_monitor_routes_on_serving_port () =
  let instance = mk_instance ~size:50 () in
  let registry = Metrics.create () in
  with_srv ~registry instance (fun srv ->
      let port = Srv.port srv in
      let conn = Srv_client.connect ~port () in
      ignore (Srv_client.query conn "( ? sub ? id=* )");
      Srv_client.close conn;
      let status, body = Monitor.get ~port "/metrics" in
      Alcotest.(check int) "/metrics status" 200 status;
      Alcotest.(check bool) "/metrics has srv_requests_total" true
        (contains ~affix:"srv_requests_total" body);
      List.iter
        (fun path ->
          Alcotest.(check int) (path ^ " status") 200
            (fst (Monitor.get ~port path)))
        [ "/alerts"; "/dashboard" ];
      let status, _, _ = Monitor.request ~meth:"POST" ~port "/metrics" in
      Alcotest.(check int) "POST /metrics" 405 status;
      (* a client's unknown paths must not become label values *)
      List.iter
        (fun path -> ignore (Monitor.request ~meth:"GET" ~port path))
        [ "/nope-1"; "/nope-2" ];
      ignore (Monitor.request ~meth:"POST" ~port "/nope-3");
      let _, body = Monitor.get ~port "/metrics" in
      Alcotest.(check bool) "unknown paths share one label" false
        (contains ~affix:"/nope-" body))

(* A 1-worker / 1-slot server under a burst of concurrent heavy
   queries must shed — Busy with a retry hint — and the shed counter
   must move.  Retries until the race lands (each round sends 12
   concurrent requests at a queue of 1). *)
let test_shed_backpressure () =
  let instance = mk_instance ~size:800 () in
  let registry = Metrics.create () in
  with_srv ~registry ~workers:1 ~queue:1 instance (fun srv ->
      let port = Srv.port srv in
      let heavy = "( d ( ? sub ? id=* ) ( ? sub ? id=* ) )" in
      let busy = ref 0 and retry_ms = ref 0 in
      let bmu = Mutex.create () in
      let rounds = ref 0 in
      while !busy = 0 && !rounds < 5 do
        incr rounds;
        let one () =
          match Srv_client.connect ~port () with
          | exception _ -> ()
          | conn ->
              (match Srv_client.query conn heavy with
              | { Srv_client.status = Srv_client.Busy ms; _ } ->
                  Mutex.lock bmu;
                  incr busy;
                  retry_ms := ms;
                  Mutex.unlock bmu
              | _ | (exception Srv_client.Disconnected) -> ());
              Srv_client.close conn
        in
        let threads = List.init 12 (fun _ -> Thread.create one ()) in
        List.iter Thread.join threads
      done;
      Alcotest.(check bool) "some requests shed" true (!busy > 0);
      Alcotest.(check bool) "retry hint positive" true (!retry_ms > 0);
      Alcotest.(check bool) "queue stayed bounded" true
        (Srv.queue_depth srv <= Srv.queue_capacity srv))

(* A 1 ms session deadline against a heavy diff on a big instance:
   the reply must come back status=deadline (with however many rows
   made it out before the budget died). *)
let test_deadline_expiry () =
  let instance = mk_instance ~size:3000 ~seed:5 () in
  with_srv instance (fun srv ->
      let conn = Srv_client.connect ~port:(Srv.port srv) () in
      Fun.protect
        ~finally:(fun () -> Srv_client.close conn)
        (fun () ->
          Alcotest.(check bool) "DEADLINE acknowledged" true
            (Srv_client.set_deadline_ms conn 1);
          let heavy = "( d ( ? sub ? id=* ) ( ? sub ? id=* ) )" in
          let expired = ref false in
          for _ = 1 to 3 do
            match Srv_client.query conn heavy with
            | { Srv_client.status = Srv_client.Deadline; _ } -> expired := true
            | _ -> ()
          done;
          Alcotest.(check bool) "budget expired at least once" true !expired))

(* PING / DEADLINE handshake and a clean QUIT. *)
let test_line_protocol_controls () =
  let instance = mk_instance ~size:50 () in
  with_srv instance (fun srv ->
      let conn = Srv_client.connect ~port:(Srv.port srv) () in
      Alcotest.(check bool) "PING answers PONG" true (Srv_client.ping conn);
      Alcotest.(check bool) "DEADLINE 5000 ok" true
        (Srv_client.set_deadline_ms conn 5000);
      let reply = Srv_client.query conn "( ? sub ? id=* )" in
      Alcotest.(check bool) "query after controls" true
        (reply.Srv_client.status = Srv_client.Ok);
      Srv_client.close conn)

(* No reply may wait on the client's delayed ACK (a Nagle stall costs
   ~40 ms a reply).  Over one idle connection, sequential queries
   alternating a one-batch reply and a several-batch one must answer
   with a median far below that; so must HTTP /query, one connection
   per request. *)
let test_no_transport_stall () =
  let instance = mk_instance () in
  let rows q = List.length (Testkit.oracle instance q) in
  let small =
    Qprinter.to_string
      (List.find
         (fun q -> rows q >= 1 && rows q <= 64)
         (Array.to_list (Query_mix.generate_ast ~seed:3 ~count:200 instance)))
  and large = "( ? sub ? id=* )" in
  let n = 30 in
  let median_ms f =
    let walls =
      Array.init n (fun i ->
          let q = if i mod 2 = 0 then small else large in
          let t0 = Unix.gettimeofday () in
          f q;
          (Unix.gettimeofday () -. t0) *. 1e3)
    in
    Array.sort compare walls;
    walls.(n / 2)
  in
  with_srv instance (fun srv ->
      let port = Srv.port srv in
      let conn = Srv_client.connect ~port () in
      let line_ms =
        Fun.protect
          ~finally:(fun () -> Srv_client.close conn)
          (fun () ->
            median_ms (fun q ->
                let reply = Srv_client.query conn q in
                if reply.Srv_client.status <> Srv_client.Ok
                   || reply.Srv_client.rows = []
                then Alcotest.failf "line query %s failed" q))
      in
      let http_ms =
        median_ms (fun q ->
            let status, _, body =
              Monitor.request ~port ("/query?q=" ^ url_encode q)
            in
            if status <> 200 || not (contains ~affix:"# status=ok" body) then
              Alcotest.failf "HTTP query %s failed: %d" q status)
      in
      if line_ms >= 10. || http_ms >= 10. then
        Alcotest.failf "median reply %.2f ms (line), %.2f ms (HTTP): >= 10 ms"
          line_ms http_ms)

(* A byte stream with random lines (empty and multi-KiB ones, "\n" or
   "\r\n" endings, an unterminated tail) written through a socketpair
   in random-size chunks — splits inside a line and inside "\r\n"
   included — must come out of the shared reader as exactly the lines
   String.split_on_char cuts, each "\r\n" read as a line end. *)
let test_reader_chunking () =
  let rs = Random.State.make [| 13 |] in
  let text len =
    String.init len (fun _ -> Char.chr (32 + Random.State.int rs 95))
  in
  for _ = 1 to 30 do
    let lines =
      List.init (Random.State.int rs 120) (fun _ ->
          match Random.State.int rs 10 with
          | 0 -> text (Random.State.int rs 20_000)
          | 1 -> ""
          | _ -> text (Random.State.int rs 80))
    in
    let stream =
      String.concat ""
        (List.map
           (fun l -> l ^ if Random.State.bool rs then "\r\n" else "\n")
           lines)
      ^ text (Random.State.int rs 3 * Random.State.int rs 50)
    in
    let expected =
      match List.rev (String.split_on_char '\n' stream) with
      | _tail :: rev_lines ->
          List.rev_map
            (fun l ->
              if String.ends_with ~suffix:"\r" l then
                String.sub l 0 (String.length l - 1)
              else l)
            rev_lines
      | [] -> []
    in
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let writer =
      Thread.create
        (fun () ->
          let len = String.length stream in
          let rec go off =
            if off < len then begin
              let k =
                min (len - off)
                  (if Random.State.bool rs then 1 + Random.State.int rs 3
                   else 1 + Random.State.int rs 5_000)
              in
              ignore (Sockio.write_all a (String.sub stream off k));
              (* let the reader see a boundary inside "\r\n" *)
              if stream.[off + k - 1] = '\r' || Random.State.int rs 8 = 0
              then Thread.delay 0.0005;
              go (off + k)
            end
          in
          go 0;
          Unix.close a)
        ()
    in
    let r = Sockio.reader b in
    let rec drain acc =
      match Sockio.read_line r with
      | Some l -> drain (l :: acc)
      | None -> List.rev acc
    in
    let got = drain [] in
    Thread.join writer;
    Unix.close b;
    Alcotest.(check (list string)) "lines" expected got
  done

(* The line bound: a line of exactly [Sockio.max_line] bytes is read, one
   byte more ends the stream for good. *)
let test_reader_bound () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let fits = String.make Sockio.max_line 'a'
  and over = String.make (Sockio.max_line + 1) 'b' in
  let writer =
    Thread.create
      (fun () ->
        ignore (Sockio.write_all a (fits ^ "\n" ^ over ^ "\nafter\n"));
        Unix.close a)
      ()
  in
  let r = Sockio.reader b in
  Alcotest.(check (option string)) "line at the bound" (Some fits)
    (Sockio.read_line r);
  Alcotest.(check (option string)) "line past the bound" None
    (Sockio.read_line r);
  Alcotest.(check (option string)) "stream stays ended" None
    (Sockio.read_line r);
  Unix.close b;
  Thread.join writer

(* An over-long request line ends that session (the server closes the
   connection) and nothing else: the server keeps serving. *)
let test_server_line_bound () =
  let instance = mk_instance ~size:50 () in
  with_srv instance (fun srv ->
      let port = Srv.port srv in
      let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close s)
        (fun () ->
          Unix.setsockopt_float s Unix.SO_RCVTIMEO 5.;
          Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          let writer =
            Thread.create
              (fun () ->
                ignore
                  (Sockio.write_all s
                     (String.make (Sockio.max_line + 10_000) 'x' ^ "\n")))
              ()
          in
          let buf = Bytes.create 4096 in
          let ended =
            match Unix.read s buf 0 (Bytes.length buf) with
            | 0 -> true
            | _ -> false
            | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
            | exception Unix.Unix_error _ -> false
          in
          Thread.join writer;
          Alcotest.(check bool) "session closed" true ended);
      let conn = Srv_client.connect ~port () in
      Fun.protect
        ~finally:(fun () -> Srv_client.close conn)
        (fun () ->
          Alcotest.(check bool) "server still serves" true
            (Srv_client.ping conn)))

(* A client hanging up mid-reply ends its session with EPIPE; the
   server process survives (SIGPIPE would kill it) and keeps serving. *)
let test_client_hangup () =
  let instance = mk_instance ~size:3000 ~seed:5 () in
  (* earlier clients in this process already ignore SIGPIPE: make the
     server establish it itself *)
  Sys.set_signal Sys.sigpipe Sys.Signal_default;
  with_srv instance (fun srv ->
      let port = Srv.port srv in
      for _ = 1 to 3 do
        let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        ignore (Sockio.write_all s "( ? sub ? id=* )\n");
        Unix.close s
      done;
      let deadline = Unix.gettimeofday () +. 5.0 in
      while Srv.session_count srv > 0 && Unix.gettimeofday () < deadline do
        Thread.delay 0.01
      done;
      Alcotest.(check int) "hung-up sessions ended" 0 (Srv.session_count srv);
      let conn = Srv_client.connect ~port () in
      Fun.protect
        ~finally:(fun () -> Srv_client.close conn)
        (fun () ->
          Alcotest.(check bool) "server still serves" true
            (Srv_client.ping conn)))

(* The client enforces the same bound: a server sending a row past it
   gets Disconnected, not a 100 KiB row. *)
let test_client_line_bound () =
  let ls = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind ls (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen ls 1;
  let port =
    match Unix.getsockname ls with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  let server =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept ls in
        ignore (Sockio.read_line (Sockio.reader fd));
        ignore
          (Sockio.write_all fd
             (String.make 100_000 'y' ^ "\n# status=ok rows=1 wall_us=1\n"));
        Unix.close fd)
      ()
  in
  let conn = Srv_client.connect ~timeout_s:5. ~port () in
  let outcome =
    match Srv_client.query conn "( ? sub ? id=* )" with
    | _ -> "reply"
    | exception Srv_client.Disconnected -> "disconnected"
  in
  Srv_client.close conn;
  Thread.join server;
  Unix.close ls;
  Alcotest.(check string) "over-long row" "disconnected" outcome

let () =
  Alcotest.run "srv"
    [
      ( "differential",
        [
          Alcotest.test_case "concurrent clients match oracle" `Quick
            test_differential_concurrency;
        ] );
      ( "http",
        [
          Alcotest.test_case "routes and streaming" `Quick test_http_routes;
          Alcotest.test_case "HEAD withholds the body" `Quick test_http_head;
          Alcotest.test_case "shed and deadline reason phrases" `Quick
            test_http_reason_phrases;
          Alcotest.test_case "request head bounded" `Quick
            test_http_head_bounded;
          Alcotest.test_case "oversized body is 413" `Quick test_http_body_bound;
          Alcotest.test_case "monitor routes on the serving port" `Quick
            test_monitor_routes_on_serving_port;
        ] );
      ( "transport",
        [
          Alcotest.test_case "no delayed-ACK stall" `Quick
            test_no_transport_stall;
          Alcotest.test_case "server line bound" `Quick test_server_line_bound;
          Alcotest.test_case "client line bound" `Quick test_client_line_bound;
          Alcotest.test_case "client hang-up mid-reply" `Quick
            test_client_hangup;
        ] );
      ( "reader",
        [
          Alcotest.test_case "random chunking = split_on_char" `Quick
            test_reader_chunking;
          Alcotest.test_case "line bound" `Quick test_reader_bound;
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "full queue sheds" `Quick test_shed_backpressure;
          Alcotest.test_case "deadline expiry" `Quick test_deadline_expiry;
        ] );
      ( "line-protocol",
        [
          Alcotest.test_case "control verbs" `Quick
            test_line_protocol_controls;
        ] );
    ]
