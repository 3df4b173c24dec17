type gate = {
  id : int;
  name : string;
  kind : Cell_kind.t;
  fanin : int array;
  fanout : int array;
  level : int;
}

type t = {
  name : string;
  gates : gate array;
  inputs : int array;
  outputs : int array;
  depth : int;
  is_output : bool array;
}

let num_gates c = Array.length c.gates

let num_cells c =
  Array.fold_left
    (fun acc g -> if g.kind = Cell_kind.Pi then acc else acc + 1)
    0 c.gates

let gate c id = c.gates.(id)

let find c name =
  let n = Array.length c.gates in
  let rec loop i =
    if i >= n then None
    else if String.equal c.gates.(i).name name then Some c.gates.(i)
    else loop (i + 1)
  in
  loop 0

let is_po c id = c.is_output.(id)

let output_flags n outputs =
  let flags = Array.make n false in
  Array.iter (fun o -> flags.(o) <- true) outputs;
  flags

let eval_all c ins =
  if Array.length ins <> Array.length c.inputs then
    invalid_arg "Circuit.eval: input-length mismatch";
  let values = Array.make (Array.length c.gates) false in
  Array.iteri (fun k id -> values.(id) <- ins.(k)) c.inputs;
  Array.iter
    (fun g ->
      if g.kind <> Cell_kind.Pi then
        values.(g.id) <- Cell_kind.eval g.kind (Array.map (fun i -> values.(i)) g.fanin))
    c.gates;
  values

let eval c ins =
  let values = eval_all c ins in
  Array.map (fun id -> values.(id)) c.outputs

let levels c =
  let buckets = Array.make (c.depth + 1) [] in
  Array.iter (fun g -> buckets.(g.level) <- g.id :: buckets.(g.level)) c.gates;
  Array.map (fun ids -> Array.of_list (List.rev ids)) buckets

let cone next c id =
  let n = Array.length c.gates in
  let seen = Array.make n false in
  let acc = ref [] in
  (* Worklist in topological order: repeatedly take marked gates in index
     order.  A simple queue suffices because [next] respects the order. *)
  let queue = Queue.create () in
  Queue.add id queue;
  seen.(id) <- true;
  while not (Queue.is_empty queue) do
    let g = Queue.pop queue in
    Array.iter
      (fun f ->
        if not seen.(f) then begin
          seen.(f) <- true;
          acc := f :: !acc;
          Queue.add f queue
        end)
      (next c.gates.(g))
  done;
  let arr = Array.of_list !acc in
  Array.sort Int.compare arr;
  arr

let fanout_cone c id = cone (fun g -> g.fanout) c id
let fanin_cone c id = cone (fun g -> g.fanin) c id

(* ---------- register-boundary partitioning ---------- *)

type partition = {
  parts : t array;
  part_of : int array;
  local_of : int array;
  part_ids : int array array;
}

(* Connected components of the undirected fanin/fanout graph.  After a
   register cut every flip-flop boundary becomes a PI (Q side) plus a PO
   (D side), so the components are exactly the combinational cones
   between register boundaries.  Local ids are a monotone remap of the
   global ids: each sub-circuit keeps the global topological order, the
   global level values (components are fanin-closed, so the inductive
   level computation agrees), pin-ordered fanins and sorted fanouts —
   which is what makes per-partition analysis bit-identical to flat. *)
let partition_at_registers c =
  let n = Array.length c.gates in
  if n = 0 then None
  else begin
    let comp = Array.make n (-1) in
    let ncomp = ref 0 in
    let queue = Queue.create () in
    for i = 0 to n - 1 do
      if comp.(i) < 0 then begin
        let k = !ncomp in
        incr ncomp;
        comp.(i) <- k;
        Queue.add i queue;
        while not (Queue.is_empty queue) do
          let g = Queue.pop queue in
          let visit j =
            if comp.(j) < 0 then begin
              comp.(j) <- k;
              Queue.add j queue
            end
          in
          Array.iter visit c.gates.(g).fanin;
          Array.iter visit c.gates.(g).fanout
        done
      end
    done;
    let k = !ncomp in
    let has_output = Array.make k false in
    Array.iter (fun o -> has_output.(comp.(o)) <- true) c.outputs;
    let has_cell = Array.make k false in
    Array.iter
      (fun g -> if g.kind <> Cell_kind.Pi then has_cell.(comp.(g.id)) <- true)
      c.gates;
    (* a component with real cells but no primary output has no timing
       sink to stitch through — such netlists are timed as one cone *)
    let dead_logic = ref false in
    for i = 0 to k - 1 do
      if has_cell.(i) && not has_output.(i) then dead_logic := true
    done;
    (* deterministic part order: components numbered by smallest global
       gate id; dangling-PI components (no cells, no outputs) ride along
       in the first real part so every gate lands in exactly one cone *)
    let part_index = Array.make k (-1) in
    let nparts = ref 0 in
    for i = 0 to k - 1 do
      if has_output.(i) then begin
        part_index.(i) <- !nparts;
        incr nparts
      end
    done;
    if !dead_logic || !nparts < 2 then None
    else begin
      for i = 0 to k - 1 do
        if part_index.(i) < 0 then part_index.(i) <- 0
      done;
      let nparts = !nparts in
      let part_of = Array.map (fun ci -> part_index.(ci)) comp in
      let counts = Array.make nparts 0 in
      Array.iter (fun p -> counts.(p) <- counts.(p) + 1) part_of;
      let part_ids = Array.init nparts (fun p -> Array.make counts.(p) 0) in
      let fill = Array.make nparts 0 in
      for gid = 0 to n - 1 do
        let p = part_of.(gid) in
        part_ids.(p).(fill.(p)) <- gid;
        fill.(p) <- fill.(p) + 1
      done;
      let local_of = Array.make n (-1) in
      Array.iter
        (fun ids -> Array.iteri (fun l gid -> local_of.(gid) <- l) ids)
        part_ids;
      let parts =
        Array.mapi
          (fun p ids ->
            let gates =
              Array.mapi
                (fun l gid ->
                  let g = c.gates.(gid) in
                  {
                    g with
                    id = l;
                    fanin = Array.map (fun j -> local_of.(j)) g.fanin;
                    fanout = Array.map (fun j -> local_of.(j)) g.fanout;
                  })
                ids
            in
            let inputs =
              Array.of_seq
                (Seq.filter_map
                   (fun g -> if g.kind = Cell_kind.Pi then Some g.id else None)
                   (Array.to_seq gates))
            in
            let outputs =
              Array.of_seq
                (Seq.filter_map
                   (fun o -> if part_of.(o) = p then Some local_of.(o) else None)
                   (Array.to_seq c.outputs))
            in
            let depth =
              Array.fold_left (fun acc g -> Stdlib.max acc g.level) 0 gates
            in
            let is_output = output_flags (Array.length gates) outputs in
            { name = Printf.sprintf "%s#%d" c.name p; gates; inputs; outputs; depth; is_output })
          part_ids
      in
      Some { parts; part_of; local_of; part_ids }
    end
  end

let stats c =
  let cells = num_cells c in
  let fanouts =
    Array.fold_left (fun acc g -> acc + Array.length g.fanout) 0 c.gates
  in
  Printf.sprintf "%s: %d cells, %d inputs, %d outputs, depth %d, avg fanout %.2f"
    c.name cells (Array.length c.inputs) (Array.length c.outputs) c.depth
    (float_of_int fanouts /. float_of_int (Stdlib.max 1 cells))

let pp ppf c = Format.pp_print_string ppf (stats c)

module Builder = struct
  type proto = { pname : string; pkind : Cell_kind.t; pfanin : string list }

  type t = {
    cname : string;
    mutable protos : proto list;  (* reversed *)
    names : (string, unit) Hashtbl.t;
    mutable pos : string list;    (* reversed *)
    mutable count : int;
  }

  let create cname = { cname; protos = []; names = Hashtbl.create 64; pos = []; count = 0 }

  let add_node b pname pkind pfanin =
    if Hashtbl.mem b.names pname then
      invalid_arg (Printf.sprintf "Circuit.Builder: duplicate net %S" pname);
    Hashtbl.add b.names pname ();
    b.protos <- { pname; pkind; pfanin } :: b.protos;
    let id = b.count in
    b.count <- b.count + 1;
    id

  let add_input b name = add_node b name Cell_kind.Pi []

  let add_gate b name kind fanins =
    if kind = Cell_kind.Pi then invalid_arg "Circuit.Builder.add_gate: Pi is not a gate";
    let n = List.length fanins in
    if n < Cell_kind.min_arity kind || n > Cell_kind.max_arity kind then
      invalid_arg
        (Printf.sprintf "Circuit.Builder.add_gate: %s with %d inputs"
           (Cell_kind.to_string kind) n);
    add_node b name kind fanins

  let mark_output b name = b.pos <- name :: b.pos

  let build b =
    let protos = Array.of_list (List.rev b.protos) in
    let n = Array.length protos in
    let index = Hashtbl.create (2 * n) in
    Array.iteri (fun i p -> Hashtbl.replace index p.pname i) protos;
    let resolve ctx name =
      match Hashtbl.find_opt index name with
      | Some i -> i
      | None -> failwith (Printf.sprintf "Circuit.Builder.build: %s references undefined net %S" ctx name)
    in
    let fanin =
      Array.map (fun p -> Array.of_list (List.map (resolve p.pname) p.pfanin)) protos
    in
    (* Kahn's algorithm gives the topological numbering and detects cycles. *)
    let indeg = Array.map Array.length fanin in
    let fanout_lists = Array.make n [] in
    Array.iteri
      (fun i fi -> Array.iter (fun j -> fanout_lists.(j) <- i :: fanout_lists.(j)) fi)
      fanin;
    let queue = Queue.create () in
    Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indeg;
    let order = Array.make n (-1) in  (* old id -> new id *)
    let seq = ref 0 in
    while not (Queue.is_empty queue) do
      let i = Queue.pop queue in
      order.(i) <- !seq;
      incr seq;
      List.iter
        (fun j ->
          indeg.(j) <- indeg.(j) - 1;
          if indeg.(j) = 0 then Queue.add j queue)
        (List.rev fanout_lists.(i))
    done;
    if !seq <> n then failwith "Circuit.Builder.build: netlist contains a combinational cycle";
    let inv = Array.make n (-1) in
    Array.iteri (fun old_id new_id -> inv.(new_id) <- old_id) order;
    let level = Array.make n 0 in
    let gates =
      Array.init n (fun new_id ->
          let old_id = inv.(new_id) in
          let p = protos.(old_id) in
          let fi = Array.map (fun j -> order.(j)) fanin.(old_id) in
          let lvl =
            if Array.length fi = 0 then 0
            else 1 + Array.fold_left (fun acc j -> Stdlib.max acc level.(j)) 0 fi
          in
          level.(new_id) <- lvl;
          let fo =
            Array.of_list (List.rev_map (fun j -> order.(j)) fanout_lists.(old_id))
          in
          Array.sort Int.compare fo;
          { id = new_id; name = p.pname; kind = p.pkind; fanin = fi; fanout = fo; level = lvl })
    in
    Array.iter
      (fun g ->
        if g.kind <> Cell_kind.Pi && Array.length g.fanin = 0 then
          failwith (Printf.sprintf "Circuit.Builder.build: gate %S has no fanin" g.name))
      gates;
    let inputs =
      Array.of_seq
        (Seq.filter_map
           (fun g -> if g.kind = Cell_kind.Pi then Some g.id else None)
           (Array.to_seq gates))
    in
    let outputs =
      Array.of_list
        (List.rev_map (fun name -> order.(resolve "primary output" name)) b.pos)
    in
    if Array.length outputs = 0 then failwith "Circuit.Builder.build: no primary outputs";
    let depth = Array.fold_left (fun acc g -> Stdlib.max acc g.level) 0 gates in
    { name = b.cname; gates; inputs; outputs; depth; is_output = output_flags n outputs }
end
