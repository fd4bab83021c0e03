(* Character tries for string-attribute filters.

   Section 4.1 evaluates wildcard string filters "with the help of trie
   and suffix tree indices".  [Str_trie] is a plain payload-carrying trie
   supporting exact and prefix lookups; [Substr] (below) layers a suffix
   trie on top so that an arbitrary substring query [*mid*] becomes a
   prefix walk.  Node visits are charged as page reads. *)

type 'a node = {
  children : (char, 'a node) Hashtbl.t;
  mutable terminal : 'a list;  (* payloads of strings ending here *)
  mutable subtree_count : int;  (* payloads stored at or below this node *)
}

type 'a t = { pager : Pager.t; root : 'a node; mutable size : int }

let fresh_node () =
  { children = Hashtbl.create 4; terminal = []; subtree_count = 0 }
let create pager = { pager; root = fresh_node (); size = 0 }
let size t = t.size
let charge_read t = Io_stats.read_page (Pager.stats t.pager)
let charge_write t = Io_stats.write_page (Pager.stats t.pager)

let add t s payload =
  let rec walk node i =
    node.subtree_count <- node.subtree_count + 1;
    if i = String.length s then node.terminal <- payload :: node.terminal
    else
      let c = s.[i] in
      let child =
        match Hashtbl.find_opt node.children c with
        | Some n -> n
        | None ->
            let n = fresh_node () in
            Hashtbl.replace node.children c n;
            n
      in
      walk child (i + 1)
  in
  walk t.root 0;
  t.size <- t.size + 1;
  charge_write t

(* Drop the first payload of [s] physically equal to [payload]; returns
   whether one was found.  Counters along the path drop by one, and a
   child whose count reaches 0 is pruned, so churned strings leave no
   dead nodes behind. *)
let remove_found t s payload =
  let rec walk node i =
    let found =
      if i = String.length s then begin
        let rec drop = function
          | [] -> raise Not_found
          | p :: rest -> if p == payload then rest else p :: drop rest
        in
        match drop node.terminal with
        | rest ->
            node.terminal <- rest;
            true
        | exception Not_found -> false
      end
      else
        let c = s.[i] in
        match Hashtbl.find_opt node.children c with
        | None -> false
        | Some child ->
            let found = walk child (i + 1) in
            if found && child.subtree_count = 0 then
              Hashtbl.remove node.children c;
            found
    in
    if found then node.subtree_count <- node.subtree_count - 1;
    found
  in
  let found = walk t.root 0 in
  if found then begin
    t.size <- t.size - 1;
    charge_write t
  end;
  found

let remove t s payload = ignore (remove_found t s payload)

(* Trie nodes, root included (unaccounted; used by tests). *)
let node_count t =
  let rec go node = Hashtbl.fold (fun _ child n -> n + go child) node.children 1 in
  go t.root

(* Locate the node reached by walking [s]; charges one read per step. *)
let descend t s =
  let rec walk node i =
    if i = String.length s then Some node
    else begin
      charge_read t;
      match Hashtbl.find_opt node.children s.[i] with
      | Some child -> walk child (i + 1)
      | None -> None
    end
  in
  walk t.root 0

let find_exact t s =
  match descend t s with Some n -> List.rev n.terminal | None -> []

(* Cardinality probes: the descent is charged like a lookup's, but the
   answer comes off the maintained subtree counters instead of a
   subtree collection — O(|s|) page reads however many strings match. *)
let count_exact t s =
  match descend t s with Some n -> List.length n.terminal | None -> 0

let count_prefix t s =
  match descend t s with Some n -> n.subtree_count | None -> 0

(* All payloads of strings with prefix [s] (the subtree below the walk). *)
let find_prefix t s =
  match descend t s with
  | None -> []
  | Some start ->
      let acc = ref [] in
      let rec collect node =
        charge_read t;
        List.iter (fun p -> acc := p :: !acc) node.terminal;
        Hashtbl.iter (fun _ child -> collect child) node.children
      in
      collect start;
      List.rev !acc

(* --- Substring (suffix-trie) index ------------------------------------ *)

module Substr = struct
  (* A suffix trie: every suffix of every indexed string is inserted, so
     the strings containing [sub] are exactly those with a suffix having
     prefix [sub].  Quadratic space in string length — acceptable for
     directory attribute values, which are short.  Payloads are deduped
     on query (the same string matches once however many suffixes hit). *)

  type nonrec 'a t = { trie : 'a t; mutable count : int }

  let create pager = { trie = create pager; count = 0 }

  let add t s payload =
    for i = 0 to String.length s - 1 do
      add t.trie (String.sub s i (String.length s - i)) payload
    done;
    (* Also index the empty suffix so [*] style scans see the string. *)
    add t.trie "" payload;
    t.count <- t.count + 1

  (* The inverse of [add]: every suffix loses one occurrence of the
     payload; the string count drops only if it was indexed. *)
  let remove t s payload =
    for i = 0 to String.length s - 1 do
      remove t.trie (String.sub s i (String.length s - i)) payload
    done;
    if remove_found t.trie "" payload then t.count <- t.count - 1

  let node_count t = node_count t.trie

  let find_substring t sub =
    let hits = find_prefix t.trie sub in
    (* Preserve first-hit order while deduping physical payloads. *)
    let seen = Hashtbl.create 16 in
    List.filter
      (fun p ->
        let k = Hashtbl.hash p in
        let dup =
          match Hashtbl.find_opt seen k with
          | Some ps -> List.memq p ps
          | None -> false
        in
        if dup then false
        else begin
          Hashtbl.replace seen k
            (p :: Option.value ~default:[] (Hashtbl.find_opt seen k));
          true
        end)
      hits

  let count t = t.count

  (* Suffix occurrences of [sub] across the indexed strings: an upper
     bound on [find_substring]'s cardinality (a string containing [sub]
     k times is counted k times; the lookup dedups).  O(|sub|) reads. *)
  let count_substring t sub = count_prefix t.trie sub
end
