(* Mod/ref analysis: the client application the paper's evaluation is
   framed around.  For a small "device driver" style program we compute,
   per function, the locations it may read and write through pointers —
   the information a compiler needs to schedule around calls.

     dune exec examples/modref_client.exe *)

let program =
  {|
/* a ring of device registers plus a transfer queue */
struct dev { int status; int data; int *irq_line; };
typedef struct req { int op; int *buf; struct req *next; } req_t;

struct dev devices[4];
int irq_flags;
req_t *queue;

void dev_reset(struct dev *d) {
  d->status = 0;
  d->data = 0;
  d->irq_line = &irq_flags;
}

void dev_write(struct dev *d, int v) {
  d->data = v;
  d->status = 1;
  *d->irq_line = 1;
}

int dev_read(struct dev *d) {
  d->status = 2;
  return d->data;
}

void enqueue(int op, int *buf) {
  req_t *r = (req_t *)malloc(sizeof(req_t));
  r->op = op;
  r->buf = buf;
  r->next = queue;
  queue = r;
}

int drain(void) {
  int n = 0;
  while (queue) {
    req_t *r = queue;
    if (r->op) *r->buf = dev_read(&devices[r->op & 3]);
    queue = r->next;
    n++;
  }
  return n;
}

int scratch[8];

int main(void) {
  int i;
  for (i = 0; i < 4; i++) dev_reset(&devices[i]);
  dev_write(&devices[1], 42);
  enqueue(1, &scratch[0]);
  enqueue(2, &scratch[4]);
  return drain();
}
|}

let () =
  let input = Engine.load_string ~file:"driver.c" program in
  let td = Result.get_ok (Engine.analyze Engine.default_request input) in
  let a = Option.get td.Engine.td_analysis in
  let prog = a.Engine.prog and ci = a.Engine.ci in
  let modref = Modref.of_ci ci in

  let show title paths =
    Printf.printf "    %-6s { %s }\n" title
      (String.concat ", " (List.map Apath.to_string paths))
  in
  print_endline "per-function mod/ref sets (direct, through pointers):";
  List.iter
    (fun fd ->
      let name = fd.Sil.fd_name in
      if name <> Sil.global_init_name then begin
        Printf.printf "  %s:\n" name;
        show "mod:" (Modref.mod_set modref name);
        show "ref:" (Modref.ref_set modref name)
      end)
    prog.Sil.p_functions;

  print_endline "\ntransitive mod set of drain (everything a call can clobber):";
  show "mod*:" (Modref.transitive_mod_set modref ci "drain");

  (* a compiler would use this to answer: can the loads around a call to
     dev_write be kept in registers? *)
  let dev_write_mods = Modref.mod_set modref "dev_write" in
  let touches_scratch =
    List.exists
      (fun p -> Apath.to_string p |> fun s -> String.length s >= 7 && String.sub s 0 7 = "scratch")
      dev_write_mods
  in
  Printf.printf "\ndev_write can clobber 'scratch'? %b (so loads of scratch survive the call)\n"
    touches_scratch
