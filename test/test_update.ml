(* Tests for the update side: Directory (add / delete / modify /
   modify_dn with subtree rename) and Ldif (serialization round-trips). *)

let dn = Dn.of_string

let base_dir () =
  Directory.create
    (Dif_gen.generate ~params:{ Dif_gen.default_params with size = 60; seed = 4 } ())

let small_dir () =
  let sc = Dif_gen.schema () in
  let d = Directory.of_schema sc in
  let oc c = (Schema.object_class, Value.Str c) in
  let add_ok e =
    match Directory.add ~as_root:(Dn.depth (Entry.dn e) = 1) d e with
    | Ok () -> ()
    | Error err -> Alcotest.failf "setup add failed: %a" Directory.pp_error err
  in
  List.iter add_ok
    [
      Entry.make (dn "dc=org") [ ("dc", Value.Str "org"); oc "dcObject" ];
      Entry.make (dn "ou=a, dc=org")
        [ ("ou", Value.Str "a"); oc "organizationalUnit" ];
      Entry.make (dn "id=1, ou=a, dc=org")
        [ ("id", Value.Int 1); ("surName", Value.Str "milo"); oc "person" ];
      Entry.make (dn "id=2, ou=a, dc=org")
        [ ("id", Value.Int 2); ("surName", Value.Str "vista"); oc "person" ];
    ];
  d

let ok = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "unexpected error: %a" Directory.pp_error e

let expect_err name = function
  | Error _ -> ()
  | Ok () -> Alcotest.failf "%s: expected an error" name

(* --- Directory: add / delete -------------------------------------------- *)

let test_add_requires_parent () =
  let d = small_dir () in
  expect_err "orphan"
    (Directory.add d
       (Entry.make (dn "id=9, ou=ghost, dc=org")
          [ ("id", Value.Int 9); (Schema.object_class, Value.Str "person") ]));
  ok
    (Directory.add d
       (Entry.make (dn "id=9, ou=a, dc=org")
          [ ("id", Value.Int 9); (Schema.object_class, Value.Str "person") ]));
  expect_err "duplicate"
    (Directory.add d
       (Entry.make (dn "id=9, ou=a, dc=org")
          [ ("id", Value.Int 9); (Schema.object_class, Value.Str "person") ]))

let test_add_validates_schema () =
  let d = small_dir () in
  expect_err "bad attribute"
    (Directory.add d
       (Entry.make (dn "id=9, ou=a, dc=org")
          [
            ("id", Value.Int 9);
            ("ghost", Value.Str "boo");
            (Schema.object_class, Value.Str "person");
          ]))

let test_delete_leaf_only () =
  let d = small_dir () in
  expect_err "has children" (Directory.delete d (dn "ou=a, dc=org"));
  ok (Directory.delete d (dn "id=1, ou=a, dc=org"));
  Alcotest.(check bool) "gone" false (Directory.mem d (dn "id=1, ou=a, dc=org"));
  expect_err "already gone" (Directory.delete d (dn "id=1, ou=a, dc=org"));
  (* subtree deletion takes everything below *)
  ok (Directory.delete ~subtree:true d (dn "ou=a, dc=org"));
  Alcotest.(check int) "only the root remains" 1 (Directory.size d)

(* --- Directory: modify ---------------------------------------------------- *)

let test_modify_values () =
  let d = small_dir () in
  let target = dn "id=1, ou=a, dc=org" in
  ok
    (Directory.modify d target
       [
         Directory.Add_value ("priority", Value.Int 3);
         Directory.Add_value ("priority", Value.Int 5);
       ]);
  let e = Option.get (Directory.find d target) in
  Alcotest.(check (list int)) "multi-valued add" [ 3; 5 ]
    (Entry.int_values e "priority");
  ok (Directory.modify d target [ Directory.Delete_value ("priority", Value.Int 3) ]);
  let e = Option.get (Directory.find d target) in
  Alcotest.(check (list int)) "value deleted" [ 5 ] (Entry.int_values e "priority");
  ok (Directory.modify d target [ Directory.Replace ("priority", [ Value.Int 9 ]) ]);
  let e = Option.get (Directory.find d target) in
  Alcotest.(check (list int)) "replaced" [ 9 ] (Entry.int_values e "priority");
  ok (Directory.modify d target [ Directory.Delete_attr "priority" ]);
  let e = Option.get (Directory.find d target) in
  Alcotest.(check (list int)) "attr gone" [] (Entry.int_values e "priority");
  (* schema still enforced *)
  expect_err "type error"
    (Directory.modify d target [ Directory.Add_value ("priority", Value.Str "x") ]);
  (* the rdn may not lose its values *)
  expect_err "rdn protected"
    (Directory.modify d target [ Directory.Delete_attr "id" ]);
  expect_err "no such entry"
    (Directory.modify d (dn "id=99, ou=a, dc=org")
       [ Directory.Add_value ("priority", Value.Int 1) ])

let test_modify_preserves_validity () =
  let d = base_dir () in
  (* random mutations keep the whole directory valid *)
  let rng = Prng.create 77 in
  let entries = Instance.to_list (Directory.instance d) in
  List.iteri
    (fun i e ->
      if i mod 3 = 0 then
        let _ =
          Directory.modify d (Entry.dn e)
            [ Directory.Add_value ("priority", Value.Int (Prng.int rng 100)) ]
        in
        ())
    entries;
  Alcotest.(check int) "still valid" 0 (List.length (Directory.validate d))

(* --- Directory: modify_dn --------------------------------------------------- *)

let test_rename_leaf () =
  let d = small_dir () in
  ok
    (Directory.modify_dn d
       (dn "id=2, ou=a, dc=org")
       ~new_rdn:(Rdn.single "id" (Value.Int 20)));
  Alcotest.(check bool) "new dn" true (Directory.mem d (dn "id=20, ou=a, dc=org"));
  Alcotest.(check bool) "old dn gone" false
    (Directory.mem d (dn "id=2, ou=a, dc=org"));
  let e = Option.get (Directory.find d (dn "id=20, ou=a, dc=org")) in
  Alcotest.(check (list int)) "rdn value updated" [ 20 ] (Entry.int_values e "id");
  Alcotest.(check (list string)) "other attrs kept" [ "vista" ]
    (Entry.string_values e "surName");
  Alcotest.(check int) "valid" 0 (List.length (Directory.validate d))

let test_rename_subtree () =
  let d = small_dir () in
  ok
    (Directory.modify_dn d (dn "ou=a, dc=org")
       ~new_rdn:(Rdn.single "ou" (Value.Str "b")));
  Alcotest.(check bool) "child moved" true
    (Directory.mem d (dn "id=1, ou=b, dc=org"));
  Alcotest.(check bool) "old child gone" false
    (Directory.mem d (dn "id=1, ou=a, dc=org"));
  Alcotest.(check int) "size preserved" 4 (Directory.size d);
  Alcotest.(check int) "valid" 0 (List.length (Directory.validate d))

let test_move_new_superior () =
  let d = small_dir () in
  let oc c = (Schema.object_class, Value.Str c) in
  ok
    (Directory.add d
       (Entry.make (dn "ou=c, dc=org") [ ("ou", Value.Str "c"); oc "organizationalUnit" ]));
  ok
    (Directory.modify_dn d
       (dn "id=1, ou=a, dc=org")
       ~new_superior:(dn "ou=c, dc=org")
       ~new_rdn:(Rdn.single "id" (Value.Int 1)));
  Alcotest.(check bool) "moved" true (Directory.mem d (dn "id=1, ou=c, dc=org"));
  expect_err "missing superior"
    (Directory.modify_dn d
       (dn "id=2, ou=a, dc=org")
       ~new_superior:(dn "ou=ghost, dc=org")
       ~new_rdn:(Rdn.single "id" (Value.Int 2)));
  expect_err "collision"
    (Directory.modify_dn d
       (dn "id=2, ou=a, dc=org")
       ~new_superior:(dn "ou=c, dc=org")
       ~new_rdn:(Rdn.single "id" (Value.Int 1)))

let test_batch_atomicity () =
  let d = small_dir () in
  let size0 = Directory.size d in
  let gen0 = Directory.generation d in
  let result =
    Directory.batch d
      [
        (fun d ->
          Directory.add d
            (Entry.make (dn "id=7, ou=a, dc=org")
               [ ("id", Value.Int 7); (Schema.object_class, Value.Str "person") ]));
        (fun d -> Directory.delete d (dn "ou=a, dc=org") (* fails: children *));
      ]
  in
  expect_err "batch fails" result;
  Alcotest.(check int) "rolled back" size0 (Directory.size d);
  Alcotest.(check int) "generation rolled back" gen0 (Directory.generation d);
  ok
    (Directory.batch d
       [
         (fun d ->
           Directory.add d
             (Entry.make (dn "id=7, ou=a, dc=org")
                [ ("id", Value.Int 7); (Schema.object_class, Value.Str "person") ]));
         (fun d -> Directory.delete d (dn "id=7, ou=a, dc=org"));
       ]);
  Alcotest.(check int) "net zero" size0 (Directory.size d)

(* Queries over a mutated directory still agree with the oracle. *)
let test_query_after_updates () =
  let d = base_dir () in
  let entries = Instance.to_list (Directory.instance d) in
  List.iteri
    (fun i e ->
      if i mod 5 = 2 && not (Directory.mem d (Entry.dn e)) then ()
      else if i mod 5 = 2 then ignore (Directory.delete ~subtree:true d (Entry.dn e)))
    entries;
  let q =
    Qparser.of_string "(c ( ? sub ? objectClass=organizationalUnit) ( ? sub ? objectClass=person))"
  in
  let eng = Engine.create ~block:8 (Directory.instance d) in
  Testkit.check_entries "engine = oracle after updates"
    (Semantics.eval (Directory.instance d) q)
    (Engine.eval_entries eng q)

(* --- Incremental index maintenance ------------------------------------ *)

(* One random mutation, resolved against the directory's state when it
   is applied: [kind] picks the operation, [a] and [b] the targets and
   values.  Mutations that fail (schema violations, collisions, a
   rolled-back batch) are part of the stream too. *)
type mutation = { kind : int; a : int; b : int }

let gen_mutation =
  QCheck2.Gen.(
    (* targets cluster on the first few entries half the time, so a
       burst often hits one entry twice or an entry inside a subtree it
       also touched *)
    map3
      (fun kind a b -> { kind; a; b })
      (int_range 0 9)
      (oneof [ int_range 0 7; int_range 0 999 ])
      (int_range 0 999))

(* A seed for the instance and a run of steps, each a burst of 1-3
   mutations, so the engine also coalesces several updates per refresh. *)
let gen_run =
  QCheck2.Gen.(
    pair (int_range 0 10_000)
      (list_size (int_range 1 10) (list_size (int_range 1 3) gen_mutation)))

let print_run (seed, steps) =
  let burst ms =
    String.concat ","
      (List.map (fun m -> Printf.sprintf "%d/%d/%d" m.kind m.a m.b) ms)
  in
  Printf.sprintf "seed %d: %s" seed (String.concat " | " (List.map burst steps))

let pick pool i = pool.(i mod Array.length pool)
let names = Dif_gen.default_params.Dif_gen.name_pool
let tags = Dif_gen.default_params.Dif_gen.tag_pool

let apply_mutation d fresh { kind; a; b } =
  let inst = Directory.instance d in
  let es = Array.of_list (Instance.to_list inst) in
  let is_leaf e = List.length (Instance.subtree inst (Entry.dn e)) = 1 in
  if Array.length es > 0 then begin
    let target = pick es a and other = pick es b in
    let tdn = Entry.dn target and odn = Entry.dn other in
    let modify ms = ignore (Directory.modify d tdn ms) in
    let next_id () =
      incr fresh;
      !fresh
    in
    let name = Value.Str (pick names b) in
    (* a fresh person, or a node with a dn-valued ref *)
    let leaf parent =
      let id = next_id () in
      let common =
        [ ("id", Value.Int id); ("name", name); ("priority", Value.Int (b mod 10)) ]
      in
      Entry.make
        (Dn.child parent (Rdn.single "id" (Value.Int id)))
        (if b mod 2 = 0 then
           (("surName", name) :: common)
           @ [ (Schema.object_class, Value.Str "person") ]
         else
           common
           @ [
               ("weight", Value.Int b);
               ("tag", Value.Str (pick tags a));
               ("ref", Value.Dn odn);
               (Schema.object_class, Value.Str "node");
             ])
    in
    match kind with
    | 0 -> ignore (Directory.add d (leaf tdn))
    | 1 -> (
        match List.filter is_leaf (Array.to_list es) with
        | [] -> ()
        | leaves ->
            ignore (Directory.delete d (Entry.dn (pick (Array.of_list leaves) a))))
    | 2 ->
        (* keep the directory populated *)
        if 3 * List.length (Instance.subtree inst tdn) <= Array.length es then
          ignore (Directory.delete ~subtree:true d tdn)
    | 3 ->
        let vs =
          if b mod 3 = 0 then [ Value.Int (b mod 10); Value.Int (a mod 10) ]
          else [ Value.Int (b mod 10) ]
        in
        modify [ Directory.Replace ("priority", vs) ]
    | 4 ->
        let at = if b mod 2 = 0 then "name" else "tag" in
        modify [ Directory.Add_value (at, name) ]
    | 5 -> (
        let not_class (at, _) = at <> Schema.object_class in
        match List.filter not_class (Entry.attrs target) with
        | [] -> ()
        | pairs ->
            let at, v = pick (Array.of_list pairs) b in
            modify [ Directory.Delete_value (at, v) ])
    | 6 ->
        let at = pick [| "priority"; "name"; "tag"; "ref"; "weight" |] b in
        modify [ Directory.Delete_attr at ]
    | 7 ->
        modify
          [
            (if b mod 2 = 0 then Directory.Replace ("ref", [ Value.Dn odn ])
             else Directory.Add_value ("ref", Value.Dn odn));
          ]
    | 8 -> (
        match Entry.rdn target with
        | None -> ()
        | Some rdn ->
            if b mod 2 = 0 then
              (* rename in place: a fresh rdn *)
              ignore
                (Directory.modify_dn d tdn
                   ~new_rdn:(Rdn.single "id" (Value.Int (next_id ()))))
            else if
              not (Dn.is_self_or_descendant_of ~descendant:odn ~ancestor:tdn)
            then
              (* move the subtree under another entry *)
              ignore (Directory.modify_dn d tdn ~new_superior:odn ~new_rdn:rdn))
    | _ ->
        (* a batch whose last operation fails: rolled back *)
        ignore
          (Directory.batch d
             [
               (fun d -> Directory.add d (leaf tdn));
               (fun d ->
                 Directory.modify d odn
                   [ Directory.Replace ("priority", [ Value.Int (a mod 10) ]) ]);
               (fun d -> Directory.delete d (dn "id=-1, dc=nowhere"));
             ])
  end

let fail fmt = Printf.ksprintf failwith fmt

(* Lookup results as multisets of physical entries: postings must be the
   directory's current entry values, not stale versions of them. *)
let same_multiset what got expect =
  let by_key x y = String.compare (Entry.key x) (Entry.key y) in
  match (got, expect) with
  | Some got, Some expect ->
      let got = List.stable_sort by_key got
      and expect = List.stable_sort by_key expect in
      if
        not
          (List.length got = List.length expect
          && List.for_all2 ( == ) got expect)
      then
        fail "%s: maintained index has %d postings, a fresh build %d" what
          (List.length got) (List.length expect)
  | _ -> fail "%s: lookup unavailable" what

(* The maintained index against a fresh build over the current instance,
   probed at every (attribute, value) the run has ever seen — values
   since removed must have left no postings behind. *)
let check_index_vs_build idx fresh_idx seen =
  Attr_index.check_invariants idx;
  (* one lookup as a multiset, and its count probe, on both indexes *)
  let probe what lookup count =
    same_multiset what (lookup idx) (lookup fresh_idx);
    let got = count idx and expect = count fresh_idx in
    if got <> expect then fail "%s: count %d, fresh build %d" what got expect
  in
  let ranges = [ (min_int, max_int); (0, 4); (5, 9); (100, 100_000) ] in
  Hashtbl.iter
    (fun (at, v) () ->
      match v with
      | Value.Int i ->
          List.iter
            (fun (lo, hi) ->
              probe
                (Printf.sprintf "%s in [%d,%d]" at lo hi)
                (fun x -> Attr_index.lookup_int_range x at ~lo ~hi)
                (fun x -> Attr_index.count_int_range x at ~lo ~hi))
            ((i, i) :: ranges)
      | Value.Str s ->
          let len = String.length s in
          probe (at ^ "=" ^ s)
            (fun x -> Attr_index.lookup_str_eq x at s)
            (fun x -> Attr_index.count_str_eq x at s);
          List.iter
            (fun p ->
              probe (at ^ "=" ^ p ^ "*")
                (fun x -> Attr_index.lookup_str_prefix x at p)
                (fun x -> Attr_index.count_prefix x at p))
            [ ""; String.sub s 0 (min 1 len); String.sub s 0 (min 2 len) ];
          List.iter
            (fun sub ->
              probe ("*" ^ at ^ "=" ^ sub ^ "*")
                (fun x -> Attr_index.lookup_substring x at sub)
                (fun x -> Attr_index.count_substring x at sub))
            [ ""; s; String.sub s (min 1 len) (max 0 (min 2 (len - 1))) ]
      | Value.Dn d ->
          probe
            (at ^ "=" ^ Value.dn_to_string d)
            (fun x -> Attr_index.lookup_dn_eq x at d)
            (fun x -> Attr_index.count_dn_eq x at d))
    seen

let note_values seen inst =
  Instance.iter
    (fun e -> List.iter (fun p -> Hashtbl.replace seen p ()) (Entry.attrs e))
    inst

(* The differential suite: after every burst of random mutations, a
   watched engine's delta-maintained indexes equal a fresh build, its
   B-trees are well formed, and its answers equal the oracle's under the
   cost-based planner and with every atomic forced through the index
   (where a stale posting would show). *)
let prop_incremental_index (seed, steps) =
  let params =
    { Dif_gen.default_params with size = 40; seed; roots = 1 + (seed mod 2) }
  in
  let d = Directory.create (Dif_gen.generate ~params ()) in
  let eng = Engine.create ~block:8 ~directory:d (Directory.instance d) in
  let queries = Query_mix.generate_ast ~seed ~count:4 (Directory.instance d) in
  let seen = Hashtbl.create 256 in
  note_values seen (Directory.instance d);
  let fresh = ref 500_000 in
  List.iter
    (fun burst ->
      List.iter (apply_mutation d fresh) burst;
      let inst = Directory.instance d in
      note_values seen inst;
      Array.iter
        (fun q ->
          List.iter
            (fun p ->
              Engine.set_planner eng p;
              Testkit.check_entries "engine = oracle" (Semantics.eval inst q)
                (Engine.eval_entries eng q))
            [ Engine.Auto; Engine.Force_index ])
        queries;
      if Engine.instance eng != inst then
        fail "engine did not adopt the new instance";
      check_index_vs_build
        (Option.get (Engine.attr_index eng))
        (Attr_index.build (Pager.create ~block:8 (Io_stats.create ())) inst)
        seen)
    steps;
  true

(* An unsubscribed hook or engine no longer hears the directory, and a
   re-watched engine catches up with what it missed. *)
let test_unsubscribe () =
  let d = base_dir () in
  let heard = ref 0 in
  let unsubscribe = Directory.on_update d (fun _ -> incr heard) in
  let eng = Engine.create ~block:8 ~directory:d (Directory.instance d) in
  let q = Qparser.of_string "( ? sub ? priority>=0)" in
  let n0 = List.length (Engine.eval_entries eng q) in
  let inst0 = Engine.instance eng in
  let delete_a_leaf () =
    let inst = Directory.instance d in
    let leaf =
      List.find
        (fun e -> List.length (Instance.subtree inst (Entry.dn e)) = 1)
        (Instance.to_list inst)
    in
    ok (Directory.delete d (Entry.dn leaf))
  in
  delete_a_leaf ();
  Alcotest.(check int) "hook heard the delete" 1 !heard;
  Alcotest.(check bool) "watched engine sees it" true
    (List.length (Engine.eval_entries eng q) < n0);
  unsubscribe ();
  unsubscribe ();
  Engine.unwatch eng;
  let inst1 = Engine.instance eng in
  Alcotest.(check bool) "engine had refreshed" true (inst1 != inst0);
  delete_a_leaf ();
  Alcotest.(check int) "unsubscribed hook hears nothing" 1 !heard;
  ignore (Engine.eval_entries eng q);
  Alcotest.(check bool) "unwatched engine keeps its instance" true
    (Engine.instance eng == inst1);
  Engine.watch eng d;
  Engine.set_planner eng Engine.Force_index;
  Testkit.check_entries "re-watched engine = oracle"
    (Semantics.eval (Directory.instance d) q)
    (Engine.eval_entries eng q)

(* --- Ldif ---------------------------------------------------------------------- *)

let test_ldif_roundtrip_small () =
  let i = Tops.figure_11 () in
  let text = Ldif.instance_to_string i in
  let i' = Ldif.of_string text in
  Alcotest.(check int) "size preserved" (Instance.size i) (Instance.size i');
  Alcotest.(check int) "valid" 0 (List.length (Instance.validate i'));
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "same dn" true (Entry.equal_dn a b);
      Alcotest.(check bool) "same attrs" true (Entry.attrs a = Entry.attrs b))
    (Instance.to_list i) (Instance.to_list i')

let prop_ldif_roundtrip seed =
  let i =
    Dif_gen.generate ~params:{ Dif_gen.default_params with seed; size = 100 } ()
  in
  let i' = Ldif.of_string (Ldif.instance_to_string i) in
  Instance.size i = Instance.size i'
  && List.for_all2
       (fun a b -> Entry.equal_dn a b && Entry.attrs a = Entry.attrs b)
       (Instance.to_list i) (Instance.to_list i')

let test_ldif_errors () =
  let bad text =
    match Ldif.of_string text with
    | exception Ldif.Parse_error _ -> ()
    | exception Instance.Invalid _ -> ()
    | _ -> Alcotest.failf "should not parse: %s" text
  in
  bad "uid: nodnline\n";
  bad "# schema\nattribute x mystery\n";
  bad "dn: uid=zoe\nghost: 1\n";
  bad "attribute age int\nclass p age\ndn: age=x\nage: notanint\n"

let test_ldif_file_io () =
  let i = Qos.figure_12 () in
  let path = Filename.temp_file "ndq" ".ldif" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Ldif.save path i;
      let i' = Ldif.load path in
      Alcotest.(check int) "file roundtrip" (Instance.size i) (Instance.size i'))

let () =
  Alcotest.run "update"
    [
      ( "directory",
        [
          Alcotest.test_case "add requires parent" `Quick test_add_requires_parent;
          Alcotest.test_case "add validates schema" `Quick test_add_validates_schema;
          Alcotest.test_case "delete leaf-only" `Quick test_delete_leaf_only;
          Alcotest.test_case "modify values" `Quick test_modify_values;
          Alcotest.test_case "modify preserves validity" `Quick
            test_modify_preserves_validity;
          Alcotest.test_case "rename leaf" `Quick test_rename_leaf;
          Alcotest.test_case "rename subtree" `Quick test_rename_subtree;
          Alcotest.test_case "move to new superior" `Quick test_move_new_superior;
          Alcotest.test_case "batch atomicity" `Quick test_batch_atomicity;
          Alcotest.test_case "query after updates" `Quick test_query_after_updates;
          Alcotest.test_case "unsubscribe" `Quick test_unsubscribe;
        ] );
      ( "incremental-index",
        [
          QCheck_alcotest.to_alcotest
            (QCheck2.Test.make ~count:60 ~name:"deltas = fresh build = oracle"
               ~print:print_run gen_run prop_incremental_index);
        ] );
      ( "ldif",
        [
          Alcotest.test_case "figure 11 roundtrip" `Quick test_ldif_roundtrip_small;
          Testkit.qtest ~count:40 "generated roundtrip"
            (QCheck2.Gen.int_range 0 10_000) prop_ldif_roundtrip;
          Alcotest.test_case "errors" `Quick test_ldif_errors;
          Alcotest.test_case "file io" `Quick test_ldif_file_io;
        ] );
    ]
